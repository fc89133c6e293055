"""Exact integer distance data and the distance Laplacian matrix.

Distances are computed for a whole stack of same-order graphs at once; a
single graph is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from distlap.graphs import Graph


@dataclass(frozen=True)
class DistanceData:
    """All-pairs hop distances with derived transmissions, diameter, Wiener index."""

    dist: np.ndarray  # (n, n) int64, symmetric, zero diagonal
    tr: np.ndarray    # (n,) int64 row sums of dist
    diameter: int
    wiener: int

    @classmethod
    def of_stack(cls, dist: np.ndarray) -> list["DistanceData"]:
        """The distance data of each matrix of a (B, n, n) distance stack, in
        order; transmissions, diameters and Wiener indices are each one
        reduction over the whole stack."""
        tr = dist.sum(axis=2)
        diameters = dist.max(axis=(1, 2)).tolist()
        wieners = (tr.sum(axis=1) // 2).tolist()
        return [cls(d, t, diam, w) for d, t, diam, w in zip(dist, tr, diameters, wieners)]


def distance_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """(B, n, n) int64 hop distances of same-order connected graphs.

    Reachability products: R starts as the identity and becomes R | R·A once
    per step, so after d steps R holds the pairs at distance <= d, and each
    pair's distance is the number of steps it spent outside R. Raises
    ValueError if some graph in the stack is disconnected.
    """
    orders = {g.n for g in graphs}
    if len(orders) != 1:
        raise ValueError(f"a stack needs graphs of one order, got orders {sorted(orders)}")
    n = orders.pop()
    masks = np.array([g.adj for g in graphs], dtype=np.uint64)
    a = (masks[:, :, None] >> np.arange(n, dtype=np.uint64) & np.uint64(1)).astype(bool)
    reach = np.eye(n, dtype=bool)  # the first product broadcasts it over the stack
    dist = np.zeros(a.shape, dtype=np.int64)
    for _ in range(n):  # a connected graph is reached within n - 1 steps
        if reach.all():
            return dist
        dist += ~reach
        reach = reach | reach @ a
    raise ValueError("graph is disconnected: unreachable vertex pair")


def apsp(g: Graph) -> DistanceData:
    """Distance data of one connected graph; raises ValueError if disconnected."""
    return DistanceData.of_stack(distance_stack([g]))[0]


def distance_laplacian(dist: np.ndarray) -> np.ndarray:
    """Integer matrix diag(tr) - dist for an (n, n) distance matrix or a
    (..., n, n) stack of them; rows sum to zero exactly."""
    dl = -dist
    i = np.arange(dist.shape[-1])
    dl[..., i, i] = dist.sum(axis=-1)
    return dl


def diameter(g: Graph) -> int:
    return apsp(g).diameter
