"""Twin vertex classes and complement component counts."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from distlap.graphs import Graph, _bits, _complement_masks, _component_masks


class TwinClass(NamedTuple):
    """A maximal clique-twin or independent-twin class with its forced eigenvalue.

    Clique twins share closed neighborhoods and force Tr+1; independent twins
    share open neighborhoods and force Tr+2; either way with multiplicity at
    least s-1, where s = len(members).
    """

    kind: str                    # "clique" | "independent"
    members: tuple[int, ...]
    external: tuple[int, ...]    # common neighborhood outside the class
    transmission: int            # shared transmission of the members
    forced_value: int
    forced_mult: int


def stacked_twin_classes(adjacency: np.ndarray, transmissions: Sequence[Sequence[int]]
                         ) -> list[tuple[TwinClass, ...]]:
    """The maximal twin classes of each connected graph of a (B, n, n)
    boolean adjacency stack, ordered by least member; transmissions[b][v] is
    the transmission of vertex v of graph b.

    Vertices are grouped by closed-neighborhood equality (clique twins) and by
    open-neighborhood equality (independent twins); only classes of size >= 2
    are emitted, and no vertex can appear in both kinds. Each graph's open and
    closed neighborhood masks are rows of one (2B, n) uint64 array, the
    closed ones first (n <= 64, so vertex 63 is the top bit). One stable sort
    of each row puts equal masks next to each other, lowest vertex first, and
    a class is a run of equal masks in that order: its first and last places
    are where "equal to the one before" turns on and off. Only the runs reach
    Python, so a graph with no twin pair does no work at all.
    """
    b, n, _ = adjacency.shape
    bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    open_masks = adjacency @ bits  # distinct powers of two: the sums are exact
    keys = np.concatenate((open_masks | bits, open_masks))  # row r < b: graph r's closed masks
    ranked = np.sort(keys, axis=1)
    same = np.zeros((2 * b, n + 1), dtype=bool)  # same[:, i]: places i - 1 and i are equal
    same[:, 1:n] = ranked[:, 1:] == ranked[:, :-1]
    out: list[tuple[TwinClass, ...]] = [()] * b
    if not same.any():  # n distinct masks of each kind in every graph
        return out
    order = keys.argsort(axis=1, kind="stable")
    # a run of equal masks turns on at a class's first place and off past its last
    row, place = np.nonzero(same[:, 1:] != same[:, :-1])
    row, first, last = row[0::2], place[0::2], place[1::2]
    found: dict[int, list[TwinClass]] = {}
    for r, ranking, start, stop, external in zip(row.tolist(), order[row].tolist(),
                                                 first.tolist(), last.tolist(),
                                                 ranked[row, first].tolist()):
        members = ranking[start:stop + 1]
        if r < b:  # a closed mask holds the clique class itself
            i, kind, bump = r, "clique", 1
            for v in members:
                external ^= 1 << v
        else:
            i, kind, bump = r - b, "independent", 2
        transmission = transmissions[i][members[0]]
        found.setdefault(i, []).append(TwinClass(
            kind, tuple(members), tuple(_bits(external)), transmission, transmission + bump,
            len(members) - 1))
    for i, classes in found.items():
        if len(classes) > 1:
            classes.sort(key=lambda t: t.members[0])
        out[i] = tuple(classes)
    return out


def complement_component_count(g: Graph) -> int:
    """Number of connected components of the complement graph."""
    return len(_component_masks(_complement_masks(g.adj)))


def complement_component_counts(adjacency: np.ndarray) -> list[int]:
    """complement_component_count of each graph of a (B, n, n) boolean
    adjacency stack, for the whole stack at once.

    The complement with a loop at every vertex is squared (boolean matrix
    products, each a float32 matmul thresholded at > 0, exact since every
    entry is an integer <= n <= 64) until it holds every path of up to
    n - 1 steps, so that reach[b, u, v] says u and v lie in one component of
    graph b's complement.
    A component is counted at its least member, the vertex no lower one reaches.
    """
    n = adjacency.shape[1]
    reach = ~adjacency
    for _ in range(max(n - 2, 0).bit_length()):  # 2**steps >= n - 1
        square = reach.astype(np.float32)
        reach = square @ square > 0
    lower = np.triu(np.ones((n, n), dtype=bool), 1)  # lower[u, v]: u < v
    return (~(reach & lower).any(axis=1)).sum(axis=1).tolist()
