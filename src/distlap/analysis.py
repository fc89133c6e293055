"""The analysis records: one graph's facts (GraphAnalysis), the few of them
a corpus audit keeps (GraphSummary), and a stack's facts as columns
(AnalysisStack), whose rows are GraphAnalysis records built when read.
verify.analyze and verify.analyze_many compute them."""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from distlap.coloring import ColoringResult, _to_result
from distlap.graphs import Graph, to_graph6
from distlap.twins import TwinClass, TwinTable


class GraphSummary(NamedTuple):
    """The fields of one analysis the extremal audit reads. Corpus workers send
    these back instead of whole GraphAnalysis records."""

    graph6: str
    n: int
    chi: int
    dl1: float


class GraphAnalysis(NamedTuple):
    """Everything the checkers need about one connected graph: one row of an
    AnalysisStack, built when something reads it, or verify.analyze's
    analysis of the graph alone.

    The scalar facts are plain fields: `diameter` and `wiener` (half the sum
    of all distances) come from the distance matrix, `chi` and `b_chi` =
    n + ceil(n/chi) from `coloring`, the one optimal coloring every chi- and
    ell-parameterized check reads. `values` is the DL spectrum as Python
    floats, nonincreasing, and `dl1` its largest. The checkers decide every
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
    coloring: ColoringResult
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
    def summary(self) -> GraphSummary:
        return GraphSummary(self.graph6, self.n, self.chi, self.dl1)


# the integer facts of an AnalysisStack, in the order of its `facts` columns
FACTS = ("chi", "b_chi", "ceil_n_chi", "diameter", "wiener", "m", "m_ge_b", "mu_below_b",
         "mu_at_n", "complement_components", "universal_vertices")


class AnalysisStack(Sequence[GraphAnalysis]):
    """The analyses of a stack of same-order connected graphs, as columns.

    `values` is the (B, n) float64 spectra, nonincreasing along each row;
    `facts` the (B, len(FACTS)) int64 integer facts, one column per name in
    FACTS; `sizes` the (B, n) color class sizes, nonincreasing and 0 past
    chi; `block_counts` the (B, n // 2) counts of eigenvalues >= n + ell_j
    for each class of size >= 2, 0 past them; `colors` the (B, n) color of
    each vertex in the coloring; `twins` the TwinTable of the stack, and
    `twin_mults` the multiplicity of each class's forced value.

    stack[i] is graph i's GraphAnalysis, built on first use and then kept,
    so a stack read twice gives the same rows.
    """

    __slots__ = ("graphs", "n", "values", "facts", "sizes", "block_counts", "colors", "twins",
                 "twin_mults", "_rows")

    def __init__(self, graphs: Sequence[Graph], values: np.ndarray, facts: np.ndarray,
                 sizes: np.ndarray, block_counts: np.ndarray, colors: np.ndarray,
                 twins: TwinTable, twin_mults: np.ndarray):
        self.graphs, self.n = graphs, graphs[0].n
        self.values, self.facts, self.sizes, self.block_counts = values, facts, sizes, block_counts
        self.colors, self.twins, self.twin_mults = colors, twins, twin_mults
        self._rows: list[GraphAnalysis | None] = [None] * len(graphs)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> GraphAnalysis:
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = self._row(i)
        return row

    def __iter__(self) -> Iterator[GraphAnalysis]:
        return map(self.__getitem__, range(len(self._rows)))

    def _row(self, i: int) -> GraphAnalysis:
        g, twins = self.graphs[i], self.twins
        (chi, b_chi, ceil_n_chi, diameter, wiener, m, m_ge_b, mu_below_b, mu_at_n, components,
         universal) = self.facts[i].tolist()
        blocks = int((self.sizes[i] >= 2).sum())
        lo, hi = twins.bounds[i], twins.bounds[i + 1]
        return GraphAnalysis(  # positionally, in field order
            g, to_graph6(g), self.n, m, chi, b_chi, ceil_n_chi, diameter, wiener,
            self.values[i].tolist(), _to_result(self.colors[i].tolist()), twins.classes(i),
            components, universal, m_ge_b, mu_below_b,
            tuple(self.block_counts[i, :blocks].tolist()), mu_at_n,
            tuple(self.twin_mults[lo:hi].tolist()))

    def heads(self) -> list[tuple]:
        """(graph6, n, m, chi, b_chi, dl1) of each graph, in order: what a
        passing graph's records and its GraphSummary read."""
        chi, b_chi, m = self.facts[:, [0, 1, 5]].T.tolist()
        return list(zip(map(to_graph6, self.graphs), [self.n] * len(self), m, chi, b_chi,
                        self.values[:, 0].tolist()))
