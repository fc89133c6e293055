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


KINDS = ("clique", "independent")  # a twin table's kind 0 and kind 1


class TwinTable(NamedTuple):
    """The maximal twin classes of a stack of graphs as columns, one entry
    per class, ordered by graph, then by least member: `graph` holds each
    class's graph, so graph b's classes are one run of entries. `kind`
    indexes KINDS, `size` is the class's vertex count and `external` that of
    its external set."""

    graph: np.ndarray
    kind: np.ndarray
    size: np.ndarray
    external: np.ndarray
    transmission: np.ndarray

    @property
    def forced_value(self) -> np.ndarray:
        return self.transmission + 1 + self.kind

    @property
    def forced_mult(self) -> np.ndarray:
        return self.size - 1


def twin_classes(g: Graph, transmissions: Sequence[int]) -> tuple[TwinClass, ...]:
    """The maximal twin classes of one connected graph, ordered by least
    member, as twin_table finds them in a stack; transmissions[v] is the
    transmission of vertex v. Vertices are grouped by their closed and by
    their open neighborhood masks in two dicts, which on one graph costs
    less than a stack's arrays."""
    found = []
    for kind, bump, masks in (("clique", 1, [a | 1 << v for v, a in enumerate(g.adj)]),
                              ("independent", 2, g.adj)):
        groups: dict[int, list[int]] = {}
        for v, mask in enumerate(masks):
            groups.setdefault(mask, []).append(v)
        for mask, members in groups.items():
            if len(members) > 1:
                if bump == 1:  # a closed mask holds the clique class itself
                    for v in members:
                        mask ^= 1 << v
                tr = transmissions[members[0]]
                found.append(TwinClass(kind, tuple(members), tuple(_bits(mask)), tr, tr + bump,
                                       len(members) - 1))
    found.sort(key=lambda t: t.members[0])
    return tuple(found)


def twin_table(adjacency: np.ndarray, degrees: np.ndarray,
               transmissions: np.ndarray) -> TwinTable:
    """The maximal twin classes of each connected graph of a (B, n, n)
    boolean adjacency stack; degrees[b, v] and transmissions[b, v] are the
    degree and the transmission of vertex v of graph b.

    Vertices are grouped by closed-neighborhood equality (clique twins) and by
    open-neighborhood equality (independent twins); only classes of size >= 2
    are kept, and no vertex can appear in both kinds. Each graph's open and
    closed neighborhood masks are rows of one (2B, n) uint64 array, the
    closed ones first (n <= 64, so vertex 63 is the top bit). One sort of
    each row puts equal masks next to each other, and a class is a run of
    equal masks: its first and last places are where "equal to the one
    before" turns on and off. A class's least member is the first vertex
    holding its mask, and the size of its external set follows from that
    member's degree, less the other members for clique twins. No class
    reaches Python.
    """
    b, n, _ = adjacency.shape
    bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    open_masks = adjacency @ bits  # distinct powers of two: the sums are exact
    keys = np.concatenate((open_masks | bits, open_masks))  # row r < b: graph r's closed masks
    ranked = np.sort(keys, axis=1)
    same = np.zeros((2 * b, n + 1), dtype=bool)  # same[:, i]: places i - 1 and i are equal
    same[:, 1:n] = ranked[:, 1:] == ranked[:, :-1]
    if not same.any():  # n distinct masks of each kind in every graph
        none = np.zeros(0, dtype=np.int64)
        return TwinTable(none, none, none, none, none)
    # a run of equal masks turns on at a class's first place and off past its last
    row, place = np.nonzero(same[:, 1:] != same[:, :-1])
    row, first, last = row[0::2], place[0::2], place[1::2]
    least = (keys[row] == ranked[row, first][:, None]).argmax(axis=1)
    kind = (row >= b).astype(np.int64)
    graph = row - b * kind
    size = last - first + 1
    external = degrees[graph, least] - (size - 1) * (kind == 0)
    by = np.lexsort((least, graph))
    graph = graph[by]
    return TwinTable(graph, kind[by], size[by], external[by], transmissions[graph, least[by]])


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
