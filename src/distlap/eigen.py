"""Symmetric eigenvalues (LAPACK via numpy), spectra, multiplicity clusters, interval counts.

A spectrum is a plain nonincreasing float64 array.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from distlap.graphs import Graph, validate_part_sizes
from distlap.metric import apsp, distance_laplacian

DEFAULT_INT_TOL = 1e-6  # snap tolerance for interval counts and clustering


def eig_symmetric(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted nonincreasing.

    LAPACK's symmetric solver via numpy.linalg.eigvalsh. The input must be
    exactly symmetric, which integer-sourced matrices always are.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)[::-1]


def cluster_values(values: Sequence[float], int_tol: float = DEFAULT_INT_TOL) -> tuple[tuple[float, int], ...]:
    """Group a nonincreasing value list into clusters; a gap beyond
    int_tol * max(1, n) starts a new cluster. Representatives are cluster means."""
    vals = [float(v) for v in values]
    gap = int_tol * max(1.0, len(vals))
    cuts = [i for i in range(1, len(vals)) if vals[i - 1] - vals[i] > gap]
    chunks = [vals[a:b] for a, b in zip([0, *cuts], [*cuts, len(vals)])]
    return tuple((sum(c) / len(c), len(c)) for c in chunks if c)


def spectrum(g: Graph) -> np.ndarray:
    """Distance Laplacian spectrum of a connected graph, nonincreasing."""
    return eig_symmetric(distance_laplacian(apsp(g)))


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


def count_in_interval(values: np.ndarray, lo: float, hi: float,
                      tol: float = DEFAULT_INT_TOL) -> int:
    """Number of eigenvalues in [lo - tol, hi + tol]; empty intervals count 0."""
    return int(np.count_nonzero((values >= lo - tol) & (values <= hi + tol)))


def mu_below(values: np.ndarray, bound: float, tol: float = DEFAULT_INT_TOL) -> int:
    """Number of eigenvalues strictly below bound - tol."""
    return int(np.count_nonzero(values < bound - tol))


def mu_at(values: np.ndarray, x: float, tol: float = DEFAULT_INT_TOL) -> int:
    """Multiplicity of the eigenvalue x up to the snap tolerance."""
    return int(np.count_nonzero(np.abs(values - x) <= tol))
