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


def twin_classes(g: Graph, tr: Sequence[int]) -> list[TwinClass]:
    """Maximal twin classes of a connected graph, ordered by least member;
    tr[v] is the transmission of vertex v.

    Vertices are grouped by closed-neighborhood equality (clique twins) and by
    open-neighborhood equality (independent twins); only classes of size >= 2
    are emitted, and no vertex can appear in both kinds.
    """
    closed = [a | 1 << v for v, a in enumerate(g.adj)]
    # a kind whose n neighborhoods are all distinct has no class to group
    kinds = [(kind, keys) for kind, keys in (("clique", closed), ("independent", g.adj))
             if len(set(keys)) < g.n]
    out: list[TwinClass] = []
    for kind, keys in kinds:
        groups: dict[int, list[int]] = {}
        for v, key in enumerate(keys):
            groups.setdefault(key, []).append(v)
        for key, members in groups.items():
            s = len(members)
            if s < 2:
                continue
            member_mask = 0
            for v in members:
                member_mask |= 1 << v
            external_mask = (key & ~member_mask) if kind == "clique" else key
            transmission = tr[members[0]]
            bump = 1 if kind == "clique" else 2
            out.append(TwinClass(
                kind=kind,
                members=tuple(members),
                external=tuple(_bits(external_mask)),
                transmission=transmission,
                forced_value=transmission + bump,
                forced_mult=s - 1,
            ))
    out.sort(key=lambda t: t.members[0])
    return out


def complement_component_count(g: Graph) -> int:
    """Number of connected components of the complement graph."""
    return len(_component_masks(_complement_masks(g.adj)))


def complement_component_counts(adjacency: np.ndarray) -> list[int]:
    """complement_component_count of each graph of a (B, n, n) boolean
    adjacency stack, for the whole stack at once.

    The complement with a loop at every vertex is squared (boolean matrix
    products) until it holds every path of up to n - 1 steps, so that
    reach[b, u, v] says u and v lie in one component of graph b's complement.
    A component is counted at its least member, the vertex no lower one reaches.
    """
    n = adjacency.shape[1]
    reach = ~adjacency
    for _ in range(max(n - 2, 0).bit_length()):  # 2**steps >= n - 1
        reach = reach @ reach
    lower = np.triu(np.ones((n, n), dtype=bool), 1)  # lower[u, v]: u < v
    return (~(reach & lower).any(axis=1)).sum(axis=1).tolist()
