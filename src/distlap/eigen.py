"""Symmetric eigenvalues (LAPACK via numpy), spectra, multiplicity clusters, interval counts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from distlap.graphs import Graph, validate_part_sizes
from distlap.metric import apsp, distance_laplacian

DEFAULT_INT_TOL = 1e-6  # snap tolerance for interval counts and clustering


@dataclass(frozen=True)
class Spectrum:
    """Nonincreasing eigenvalues plus multiplicity clusters under a tolerance."""

    values: np.ndarray                     # (n,) float64, sorted nonincreasing
    clusters: tuple[tuple[float, int], ...]  # (representative, multiplicity), descending

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


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
    vals = list(values)
    if not vals:
        return ()
    gap = int_tol * max(1.0, len(vals))
    clusters = []
    start = 0
    for i in range(1, len(vals)):
        if vals[i - 1] - vals[i] > gap:
            chunk = vals[start:i]
            clusters.append((float(sum(chunk) / len(chunk)), len(chunk)))
            start = i
    chunk = vals[start:]
    clusters.append((float(sum(chunk) / len(chunk)), len(chunk)))
    return tuple(clusters)


def spectrum(g: Graph, int_tol: float = DEFAULT_INT_TOL) -> Spectrum:
    """Distance Laplacian spectrum of a connected graph."""
    vals = eig_symmetric(distance_laplacian(apsp(g)))
    return Spectrum(values=vals, clusters=cluster_values(vals, int_tol))


def multipartite_spectrum_closed_form(parts: Iterable[int]) -> Spectrum:
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
    pairs: list[tuple[int, int]] = []
    for size in sizes:
        if size >= 2:
            pairs.append((n + size, size - 1))
    pairs.append((n, k - 1))
    pairs.append((0, 1))

    merged: list[tuple[float, int]] = []
    for value, mult in pairs:
        if merged and merged[-1][0] == value:
            merged[-1] = (value, merged[-1][1] + mult)
        else:
            merged.append((float(value), mult))
    values = np.array([v for v, mult in merged for _ in range(mult)], dtype=np.float64)
    return Spectrum(values=values, clusters=tuple(merged))


def _values(s) -> np.ndarray:
    if isinstance(s, Spectrum):
        return s.values
    return np.asarray(s, dtype=np.float64)


def count_in_interval(s, lo: float, hi: float, tol: float = DEFAULT_INT_TOL) -> int:
    """Number of eigenvalues in [lo - tol, hi + tol]; empty intervals count 0."""
    vals = _values(s)
    return int(np.count_nonzero((vals >= lo - tol) & (vals <= hi + tol)))


def mu_below(s, bound: float, tol: float = DEFAULT_INT_TOL) -> int:
    """Number of eigenvalues strictly below bound - tol."""
    vals = _values(s)
    return int(np.count_nonzero(vals < bound - tol))


def mu_at(s, x: float, tol: float = DEFAULT_INT_TOL) -> int:
    """Multiplicity of the eigenvalue x up to the snap tolerance."""
    vals = _values(s)
    return int(np.count_nonzero(np.abs(vals - x) <= tol))
