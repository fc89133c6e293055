"""Symmetric eigenvalues (LAPACK via numpy), spectra, multiplicity clusters, threshold counts.

A spectrum is a plain nonincreasing float64 array, and a stack of spectra is
an array whose last axis holds each spectrum. The threshold counts take
either, with thresholds c whose shape broadcasts with values[..., 0], and
compare every eigenvalue with each c at once, by `v >= c - INT_TOL` and
`abs(v - c) <= INT_TOL`: for an integer c they give the integers those
tests give over the whole spectrum. Every count, multiplicity and cluster
snaps with the one fixed tolerance INT_TOL; no caller sets it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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


def counts_at_least(values: np.ndarray, c) -> np.ndarray:
    """The number of eigenvalues >= c - INT_TOL of each spectrum."""
    return (values >= np.asarray(c)[..., None] - INT_TOL).sum(axis=-1)


def multiplicities(values: np.ndarray, c) -> np.ndarray:
    """The number of eigenvalues within INT_TOL of c of each spectrum."""
    return (np.abs(values - np.asarray(c)[..., None]) <= INT_TOL).sum(axis=-1)
