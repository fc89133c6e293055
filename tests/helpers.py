"""Independent brute-force oracles, closed forms and coloring checks that only
the tests call, each graph's twin table entries, the list-based reference
DSATUR search, random generators used across the tests, reports made from
hand-built results, stacks made from hand-built analyses and the analyze
that hands them to the claim table, the reports of a sweep's stacks, the
comparison of a stack's columns with analyze, and the comparison of the
claim table with run_checks."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
from collections import Counter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from distlap import verify
from distlap.analysis import FACTS, AnalysisStack
from distlap.coloring import _OverBudget
from distlap.eigen import eig_symmetric
from distlap.graphs import Graph, _bits, canonical_form, is_connected, validate_part_sizes
from distlap.metric import distance_laplacian, distance_stack
from distlap.twins import KINDS, TwinClass, TwinTable, twin_table
from distlap.verify import (
    CheckReport,
    CheckResult,
    GraphAnalysis,
    StackReports,
    analyze,
    report_csv,
    report_jsonl,
    run_checks,
    run_checks_many,
    sweep,
)


def brute_force_chromatic(g: Graph) -> int:
    """Minimum k such that some assignment of k colors is proper.

    Pure assignment search over product(range(k), repeat=n); deliberately
    independent of the DSATUR branch-and-bound path it cross-checks.
    """
    edges = g.edges()
    if not edges:
        return 1
    for k in range(1, g.n + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def brute_force_connected_classes(n: int) -> set[bytes]:
    """Canonical forms of all connected graphs on n vertices by labeled enumeration."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            out.add(canonical_form(g))
    return out


def classes_of(colors: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The color classes of a coloring, largest first and equal sizes by
    least member: the order the pinned coloring digests hash."""
    by_color: dict[int, list[int]] = {}  # in order of each class's least member
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    # the sort is stable, and reverse=True keeps it so
    return tuple(map(tuple, sorted(by_color.values(), key=len, reverse=True)))


def is_proper(g: Graph, classes: Iterable[Iterable[int]]) -> bool:
    """True iff no class contains an edge; raises if classes do not partition V."""
    blocks = [sorted(c) for c in classes]
    flat = sorted(v for b in blocks for v in b)
    if flat != list(range(g.n)):
        raise ValueError("classes do not partition the vertex set")
    for block in blocks:
        mask = 0
        for v in block:
            mask |= 1 << v
        for v in block:
            if g.adj[v] & mask:
                return False
    return True


def universal_vertex_count(g: Graph) -> int:
    """Number of vertices adjacent to every other vertex."""
    return sum(1 for v in range(g.n) if g.degree(v) == g.n - 1)


def brute_force_twin_classes(g: Graph, tr: Sequence[int]) -> list[TwinClass]:
    """The maximal twin classes of g by their definition, ordered by least
    member: u and v are clique twins when they are adjacent and have the same
    other neighbors, independent twins when they have the same neighbors. A
    class's external set is the common neighborhood outside it, and it reads
    its transmission from tr at its least member."""
    nbrs = [set(_bits(a)) for a in g.adj]
    twins = {
        "clique": lambda u, v: v in nbrs[u] and nbrs[u] - {v} == nbrs[v] - {u},
        "independent": lambda u, v: nbrs[u] == nbrs[v],
    }
    out = []
    for kind, bump in (("clique", 1), ("independent", 2)):
        grouped: set[int] = set()
        for u in range(g.n):
            if u in grouped:
                continue
            members = [u] + [v for v in range(u + 1, g.n) if twins[kind](u, v)]
            grouped.update(members)
            if len(members) > 1:
                external = set.intersection(*(nbrs[v] for v in members)) - set(members)
                out.append(TwinClass(kind, tuple(members), tuple(sorted(external)), tr[u],
                                     tr[u] + bump, len(members) - 1))
    return sorted(out, key=lambda t: t.members[0])


def twin_entries(classes: Iterable[TwinClass]) -> list[tuple]:
    """(kind, size, |external|, transmission) of each TwinClass, in order:
    what a twin table keeps of a class."""
    return [(t.kind, len(t.members), len(t.external), t.transmission) for t in classes]


def table_entries(table: TwinTable, b: int) -> list[tuple]:
    """Graph b's entries of a twin table as twin_entries gives them, in the
    table's (least-member) order."""
    at = table.graph == b
    return list(zip([KINDS[k] for k in table.kind[at].tolist()], table.size[at].tolist(),
                    table.external[at].tolist(), table.transmission[at].tolist()))


def stacked_twin_classes(adjacency: np.ndarray, transmissions: Sequence[Sequence[int]]
                         ) -> list[list[tuple]]:
    """The twin table entries of each graph of a (B, n, n) boolean adjacency
    stack (table_entries), from one twin_table of the stack."""
    table = twin_table(adjacency, adjacency.sum(axis=2), np.asarray(transmissions))
    return [table_entries(table, b) for b in range(len(adjacency))]


def assert_columns_match_analyze(stack: AnalysisStack, mode: str = "default",
                                 analyses: Sequence[GraphAnalysis] | None = None) -> None:
    """Check each column of an analyze_many stack against analyze(g, mode) of
    each of its graphs alone (or against `analyses`, those analyses made
    before): the spectra bit for bit, every FACTS column, the class sizes
    and block counts padded with 0, the twin table entries (table_entries),
    their order by graph and the multiplicities of their forced values."""
    n = stack.n
    assert list(stack.facts) == list(FACTS)
    assert {column.dtype for column in stack.facts.values()} == {np.dtype(np.int64)}
    if analyses is None:
        analyses = [analyze(g, mode) for g in stack.graphs]
    for i, (g, a) in enumerate(zip(stack.graphs, analyses, strict=True)):
        assert a.graph == g, a.graph6
        assert stack.values[i].tobytes() == np.array(a.values).tobytes(), a.graph6
        assert [stack.facts[name][i] for name in FACTS] == [
            getattr(a, name) for name in FACTS], a.graph6
        assert stack.sizes[i].tolist() == [*a.sizes, *[0] * (n - a.chi)], a.graph6
        assert stack.block_counts[i].tolist() == [
            *a.block_counts, *[0] * (n // 2 - len(a.block_counts))], a.graph6
        assert table_entries(stack.twins, i) == twin_entries(a.twins), a.graph6
        assert stack.twin_mults[stack.twins.graph == i].tolist() == list(a.twin_mults), a.graph6
    # graph by graph, so that each graph's entries are one run
    assert stack.twins.graph.tolist() == [i for i, a in enumerate(analyses) for _ in a.twins]


def stack_of(analyses: Sequence[GraphAnalysis]) -> AnalysisStack:
    """The AnalysisStack of `analyses`, of one order, as they are
    (hand-edited ones included): every column is read back from them, and
    graph i is a copy of analyses[i].graph of its own, so that analyzed_as
    can tell the graphs apart."""
    n = analyses[0].n
    if any(a.n != n for a in analyses):
        raise ValueError("a stack needs analyses of one order")
    padded = np.zeros((2, len(analyses), n), dtype=np.int64)
    for i, a in enumerate(analyses):
        for row, seq in zip(padded, (a.sizes, a.block_counts)):
            row[i, :len(seq)] = seq
    classes = [(i, t, mult) for i, a in enumerate(analyses)
               for t, mult in zip(a.twins, a.twin_mults)]
    graph = np.array([i for i, _, _ in classes], dtype=np.int64)
    columns = np.array([(KINDS.index(t.kind), len(t.members), len(t.external), t.transmission)
                        for _, t, _ in classes], dtype=np.int64).reshape(-1, 4).T
    twins = TwinTable(graph, *columns)
    return AnalysisStack(
        [Graph(n, a.graph.adj) for a in analyses], "default",
        np.array([a.values for a in analyses], dtype=np.float64),
        {name: np.array([getattr(a, name) for a in analyses], dtype=np.int64) for name in FACTS},
        padded[0], padded[1, :, :n // 2], twins,
        np.array([mult for _, _, mult in classes], dtype=np.int64))


@contextlib.contextmanager
def analyzed_as(stack: AnalysisStack, analyses: Sequence[GraphAnalysis]) -> Iterator[None]:
    """Within the block, verify.analyze of graph i of the stack (that very
    object) is analyses[i], so the claim table decides hand-edited analyses
    by run_checks as they are; any other graph raises KeyError."""
    rows = {id(g): a for g, a in zip(stack.graphs, analyses, strict=True)}
    real = verify.analyze
    verify.analyze = lambda g, coloring_mode="default": rows[id(g)]
    try:
        yield
    finally:
        verify.analyze = real


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


def report_of(a: GraphAnalysis, results: Iterable[CheckResult]) -> CheckReport:
    """The report of a whose results are `results`, for record-writer tests
    that need results no checker makes: each result's check id, reason,
    labels, slacks and violations are entered as run_checks enters them."""
    report = CheckReport(a.head)
    for i, r in enumerate(results):
        report.checks.append((r.check_id, r.reason, tuple(r.slack)))
        report.slacks += r.slack.values()
        report.failed += [(i, v) for v in r.violations]
    return report


def swept_reports(graphs: Sequence[Graph], coloring_mode: str = "default") -> list[CheckReport]:
    """The CheckReport of every graph, in order, from sweep's stacks."""
    return [report for table in sweep(graphs, StackReports.reports, coloring_mode)
            for report in table]


def assert_table_matches_run_checks(analyses: Sequence[GraphAnalysis] | AnalysisStack) -> int:
    """Check that run_checks_many on a stack makes, report for report, what
    run_checks makes of each of its analyses alone: the same head, check
    entries, slacks bit for bit, failed claims, verdicts and JSON and CSV
    records.
    The stack's own records and tallies must equal those of its reports:
    its jsonl the joined report_jsonl, its tallies a Counter of the verdicts,
    its heads the reports' heads.
    The stack is an analyze_many stack, whose analyses are analyze's of its
    graphs, or stack_of a list of analyses; the table reads them through
    analyzed_as. Returns the number of reports the table itself filled (no
    failed claim, no non-finite slack)."""
    if isinstance(analyses, AnalysisStack):
        stack = analyses
        analyses = [analyze(g, stack.coloring_mode) for g in stack.graphs]
    else:
        stack = stack_of(analyses)
    with analyzed_as(stack, analyses):
        table = run_checks_many(stack)
    reports = table.reports()
    assert table.jsonl() == "".join(map(report_jsonl, reports))
    assert table.tallies() == Counter(report.verdicts for report in reports)
    assert table.heads == [report.head for report in reports]
    tabled = 0
    for x, a in zip(reports, analyses, strict=True):
        y = run_checks(a)
        assert x.head == y.head, a.graph6
        assert tuple(x.checks) == tuple(y.checks), a.graph6
        assert [v.hex() for v in x.slacks] == [v.hex() for v in y.slacks], a.graph6
        assert x.failed == y.failed, a.graph6
        assert x.verdicts == y.verdicts, a.graph6
        assert report_jsonl(x) == report_jsonl(y), a.graph6
        assert report_csv(x) == report_csv(y), a.graph6
        tabled += type(x.checks) is tuple  # run_checks fills a list
    return tabled


def toggle_edge(g: Graph, u: int, v: int) -> Graph:
    """g with the edge {u, v} removed if present, else added."""
    return Graph.from_edges(g.n, set(g.edges()) ^ {(min(u, v), max(u, v))})


def dl_spectra(graphs: Sequence[Graph]) -> list[np.ndarray]:
    """Each connected graph's distance Laplacian spectrum, in order, from the
    kernel analyze_many runs, once over each stack of same-order graphs."""
    out: list = [None] * len(graphs)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    for idx in by_order.values():
        values = eig_symmetric(distance_laplacian(distance_stack([graphs[i] for i in idx])))
        for i, row in zip(idx, values):
            out[i] = row
    return out


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n_lo: int, n_hi: int,
                           p_lo: float = 0.2, p_hi: float = 0.85) -> Graph:
    while True:
        n = rng.randint(n_lo, n_hi)
        g = random_graph(rng, n, rng.uniform(p_lo, p_hi))
        if is_connected(g):
            return g


def dense_graphs(seed: int, count: int) -> list[Graph]:
    """Seeded connected graphs with n 30-44 and density 0.4-0.7, where exact
    coloring backtracks deeply."""
    rng = random.Random(seed)
    return [random_connected_graph(rng, 30, 44, 0.4, 0.7) for _ in range(count)]


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_part_sizes(rng: random.Random, max_total: int = 30) -> list[int]:
    """Random multipartite part vector with k >= 2 parts and total <= max_total."""
    k = rng.randint(2, 6)
    parts = [rng.randint(1, 8) for _ in range(k)]
    while sum(parts) > max_total:
        parts[parts.index(max(parts))] -= 1
    return parts


# The list-based DSATUR kernel that coloring._search replaced, kept verbatim
# (bar the names) as the reference the bitset kernel must match node for node.

def neighbor_lists(adj: Sequence[int]) -> list[list[int]]:
    """Each vertex's neighbors, lowest first, from its neighbor mask."""
    return [_bits(a) for a in adj]


def reference_search(neighbors: Sequence[Sequence[int]], k: int, by_degree: bool = True,
                     budget: float = math.inf,
                     feasible: Callable[[int, int, list[int]], bool] | None = None
                     ) -> list[int] | None:
    """The first proper coloring of the graph with neighbor lists `neighbors`
    (from neighbor_lists) in colors 0..k-1, or None if there is none.

    DSATUR backtracking (Brelaz 1979): the next vertex is an uncolored one
    that sees the most colors, ties going to the highest degree if
    `by_degree`, else to the lowest index. Its colors are tried lowest first,
    and of the colors nobody holds yet only the lowest. A branch is cut as
    soon as an uncolored vertex sees all k colors, and is not entered if
    `feasible(v, c, colors)` says no (v still uncolored in `colors`). With
    k = n nothing is ever cut, because no vertex can see n colors, so with
    lowest-index ties the result is greedy DSATUR. Past `budget` nodes it
    raises _OverBudget.
    """
    n = len(neighbors)
    full = (1 << k) - 1
    colors = [-1] * n
    nb_colors = [0] * n
    # 64 * colors seen + (degree or 0); -1 once colored
    keys = [len(nbrs) if by_degree else 0 for nbrs in neighbors]

    def rec(left: int, held: int) -> bool:
        nonlocal budget
        if not left:
            return True
        budget -= 1
        if budget < 0:
            raise _OverBudget
        v = keys.index(max(keys))
        key, keys[v] = keys[v], -1
        avail = full & ~nb_colors[v]
        fresh = full & ~held
        avail &= ~fresh | (fresh & -fresh)
        while avail:
            bit = avail & -avail
            avail ^= bit
            c = bit.bit_length() - 1
            if feasible is not None and not feasible(v, c, colors):
                continue
            colors[v] = c
            touched = [u for u in neighbors[v] if keys[u] >= 0 and not nb_colors[u] & bit]
            alive = True
            for u in touched:
                nb_colors[u] |= bit
                keys[u] += 64
                alive = alive and nb_colors[u] != full
            if alive and rec(left - 1, held | bit):
                return True
            for u in touched:
                nb_colors[u] ^= bit
                keys[u] -= 64
            colors[v] = -1
        keys[v] = key
        return False

    return colors if k > 0 and rec(n, 0) else None
