"""Exact integer hop distances and the distance Laplacian matrix.

Distances are computed for a whole stack of same-order graphs at once; a
single graph is a stack of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from distlap.graphs import Graph


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


def distance_laplacian(dist: np.ndarray) -> np.ndarray:
    """Integer matrix diag(tr) - dist for an (n, n) distance matrix or a
    (..., n, n) stack of them; rows sum to zero exactly."""
    dl = -dist
    i = np.arange(dist.shape[-1])
    dl[..., i, i] = dist.sum(axis=-1)
    return dl

