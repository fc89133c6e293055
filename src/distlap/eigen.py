"""Symmetric eigenvalues (LAPACK via numpy), spectra, multiplicity clusters, threshold counts.

A spectrum is a plain nonincreasing float64 array, and a stack of spectra is
an array whose last axis holds each spectrum. Every count, multiplicity and
cluster snaps with the one fixed tolerance INT_TOL; no caller sets it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from distlap.graphs import validate_part_sizes

INT_TOL = 1e-6  # snap tolerance for threshold counts, multiplicities and clustering


def eig_symmetric(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each matrix in a (..., n, n)
    stack, sorted nonincreasing along the last axis.

    One LAPACK symmetric solve via numpy.linalg.eigvalsh, which gives each
    matrix of a stack the same values it gives that matrix alone. The input
    must be exactly symmetric, which integer-sourced matrices always are.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    if not (a == a.swapaxes(-1, -2)).all():
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)[..., ::-1]


def cluster_values(values: Sequence[float]) -> tuple[tuple[float, int], ...]:
    """Group a nonincreasing value list into clusters; a gap beyond
    INT_TOL * max(1, n) starts a new cluster. Representatives are cluster means."""
    vals = [float(v) for v in values]
    gap = INT_TOL * max(1.0, len(vals))
    cuts = [i for i in range(1, len(vals)) if vals[i - 1] - vals[i] > gap]
    chunks = [vals[a:b] for a, b in zip([0, *cuts], [*cuts, len(vals)])]
    return tuple((sum(c) / len(c), len(c)) for c in chunks if c)


def multipartite_spectrum_closed_form(parts: Iterable[int]) -> np.ndarray:
    """Exact distance Laplacian spectrum of a complete multipartite graph.

    For parts l_1 >= ... >= l_k summing to n, the eigenvalues are n + l_j with
    multiplicity l_j - 1 for every part of size >= 2, then n with multiplicity
    k - 1, then a single 0. Assembled without any numeric eigensolving.
    """
    sizes = validate_part_sizes(parts)
    k = len(sizes)
    if k < 2:
        raise ValueError("a complete 1-partite graph is edgeless, hence disconnected")
    n = sum(sizes)
    values = [n + size for size in sizes for _ in range(size - 1)]
    values += [n] * (k - 1) + [0]
    return np.array(values, dtype=np.float64)


# Both counts take a (R, n) stack of spectra and one threshold per row, and
# return an int array of one count per row.

def count_at_least(values: np.ndarray, thresholds) -> np.ndarray:
    """Per row, the number of eigenvalues >= its threshold - INT_TOL."""
    return (values >= np.asarray(thresholds, float)[:, None] - INT_TOL).sum(axis=-1)


def multiplicity(values: np.ndarray, thresholds) -> np.ndarray:
    """Per row, the number of eigenvalues within INT_TOL of its threshold."""
    near = np.abs(values - np.asarray(thresholds, float)[:, None]) <= INT_TOL
    return near.sum(axis=-1)
