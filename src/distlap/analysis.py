"""The analysis records: one graph's facts (GraphAnalysis), which only
verify.analyze builds, the few of them its records and the extremal audit
read (Head), and a stack's facts as columns (AnalysisStack), which
verify.analyze_many computes. The checkers read a GraphAnalysis and a stack
alike: the facts by name, value(k), ell1, blocks() and ranked_twins(kind),
as Python scalars or as columns with one entry per graph. Of a coloring
the claims read only its class sizes, `sizes` in both."""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from distlap.graphs import Graph, to_graph6
from distlap.twins import KINDS, TwinClass, TwinTable


class Head(NamedTuple):
    """The fields of one analysis that a graph's records and the extremal
    audit read. Corpus workers send these back instead of whole reports."""

    graph6: str
    n: int
    m: int
    chi: int
    b_chi: int
    dl1: float


class GraphAnalysis(NamedTuple):
    """Everything the checkers need about one connected graph, as
    verify.analyze computes it for the graph alone.

    The scalar facts are plain fields: `diameter` and `wiener` (half the sum
    of all distances) come from the distance matrix. `colors` is the color of
    each vertex in the one optimal coloring every chi- and ell-parameterized
    check rests on, and `sizes` its class sizes, nonincreasing, as a stack
    row's nonzero prefix; `chi` = len(sizes) and `b_chi` = n + ceil(n/chi).
    `values` is the DL spectrum as Python floats, nonincreasing, and `dl1`
    its largest. The checkers decide every
    spectral claim by integer counts: `m_ge_b` eigenvalues are >= b_chi and
    `mu_below_b` = n - m_ge_b are not, `block_counts[j]` are >= n + ell_j for
    each class of size >= 2, `mu_at_n` is the multiplicity of n and
    `twin_mults[i]` that of `twins[i].forced_value`.
    """

    graph: Graph
    graph6: str
    n: int
    m: int
    chi: int
    b_chi: int
    ceil_n_chi: int
    diameter: int
    wiener: int
    values: list[float]
    colors: list[int]
    sizes: tuple[int, ...]
    twins: tuple[TwinClass, ...]
    complement_components: int
    universal_vertices: int
    m_ge_b: int
    mu_below_b: int
    block_counts: tuple[int, ...]
    mu_at_n: int
    twin_mults: tuple[int, ...]

    @property
    def dl1(self) -> float:
        return self.values[0]

    @property
    def head(self) -> Head:
        return Head(self.graph6, self.n, self.m, self.chi, self.b_chi, self.dl1)

    def value(self, k: int) -> float:
        return self.values[k]

    @property
    def ell1(self) -> int:
        return self.sizes[0]

    def blocks(self) -> Iterator[tuple[int, int]]:
        """(ell_j, block_counts[j]) of each color class of size >= 2."""
        return zip(self.sizes, self.block_counts)

    def ranked_twins(self, kind: str) -> tuple[bool, list[tuple]]:
        """Whether the graph has no `kind` twin class, and its classes of that
        kind by rank, (forced value, size, |external|) in least-member order,
        each as (mult, forced_mult, forced_value, size, |external|, True,
        members), mult the multiplicity of its forced value."""
        ranks = sorted([(mult, t.forced_mult, t.forced_value, len(t.members), len(t.external),
                         True, t.members)
                        for t, mult in zip(self.twins, self.twin_mults) if t.kind == kind],
                       key=lambda rank: rank[2:5])
        return not ranks, ranks


# the names of the integer facts of an AnalysisStack, the keys of its `facts`
FACTS = ("chi", "b_chi", "ceil_n_chi", "diameter", "m", "m_ge_b", "mu_below_b", "mu_at_n",
         "complement_components", "universal_vertices")


class AnalysisStack:
    """The analyses of a stack of same-order connected graphs, as columns.

    `values` is the (B, n) float64 spectra, nonincreasing along each row;
    `facts` holds the (B,) int64 column of each integer fact by its name in
    FACTS; `sizes` the (B, n) color class sizes, row i graph i's `sizes`
    padded with 0 past chi; `block_counts` the (B, n // 2) counts of
    eigenvalues >= n + ell_j for each class of size >= 2, 0 past them;
    `twins` the TwinTable of the stack, and `twin_mults` the multiplicity of
    each class's forced value.
    Graph i's columns hold what verify.analyze(graphs[i], coloring_mode)
    computes for it alone; the stack keeps no GraphAnalysis, no colors, and
    no column of what only analyze's output reads (`wiener`). stack.chi is
    the column of chi, and so on for every name in FACTS.
    """

    __slots__ = ("graphs", "n", "coloring_mode", "values", "facts", "sizes", "block_counts",
                 "twins", "twin_mults")

    def __init__(self, graphs: Sequence[Graph], coloring_mode: str, values: np.ndarray,
                 facts: dict[str, np.ndarray], sizes: np.ndarray, block_counts: np.ndarray,
                 twins: TwinTable, twin_mults: np.ndarray):
        self.graphs, self.n, self.coloring_mode = graphs, graphs[0].n, coloring_mode
        self.values, self.facts, self.sizes, self.block_counts = values, facts, sizes, block_counts
        self.twins, self.twin_mults = twins, twin_mults

    def __len__(self) -> int:
        return len(self.graphs)

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in FACTS:
            raise AttributeError(name)
        return self.facts[name]

    def value(self, k) -> np.ndarray:
        """values[k] of each graph, for an index k or a column of them,
        clipped to the spectrum (a graph reads it only where k is in it)."""
        return self.values[np.arange(len(self)), np.clip(k, 0, self.n - 1)]

    @property
    def ell1(self) -> np.ndarray:
        return self.sizes[:, 0]

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(ell_j, block_counts[:, j]) of color class j of each graph, j < n // 2."""
        return zip(self.sizes.T, self.block_counts.T)

    def ranked_twins(self, kind: str) -> tuple[np.ndarray, list[tuple]]:
        """GraphAnalysis.ranked_twins as columns: n // 2 ranks, rank i holding
        each graph's class of rank i where it has one, and no members. One
        stable lexsort of the twin table on (graph, forced value, size, |external|)."""
        t = self.twins
        at = np.flatnonzero(t.kind == KINDS.index(kind))
        order = at[np.lexsort((t.external[at], t.size[at], t.forced_value[at], t.graph[at]))]
        graph = t.graph[order]
        rank = np.arange(len(order)) - np.searchsorted(graph, graph)
        ranks = np.zeros((5, self.n // 2, len(self)), dtype=np.int64)
        ranks[:, rank, graph] = np.stack((self.twin_mults, t.forced_mult, t.forced_value, t.size,
                                          t.external))[:, order]
        present = ranks[3] > 0  # every class has a size
        return ~present.any(axis=0), [(*row, there, None) for *row, there in zip(*ranks, present)]

    def heads(self) -> list[Head]:
        """The Head of each graph, in order, read from the columns."""
        return list(map(Head, map(to_graph6, self.graphs), [self.n] * len(self), self.m.tolist(),
                        self.chi.tolist(), self.b_chi.tolist(), self.values[:, 0].tolist()))
