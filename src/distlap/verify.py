"""Checkers for every spectral bound, multiplicity, and distribution claim.

run_checks is the reference way a check is decided. It fills one CheckReport
per graph by calling each check_*(a, report) in CHECKS order on the immutable
GraphAnalysis a. A checker appends its claims to the report: each claim's
label and slack (always lhs - rhs in the inequality's stated orientation, so
slack 0 marks a tight bound), and for a claim that fails, its lhs, rhs and
twin class members. A checker whose hypothesis fails returns the reason
instead: a not-applicable verdict rather than a vacuous pass, keeping the
gating visible in reports. A report's CheckResults are read from its claims
when asked for (pretty verify, CSV, failing graphs). A report with no failed
claim writes its JSON records into the cached %-template of its shape (its
check ids, reasons and labels), which also holds its verdicts, so a corpus
pass writes records and tallies verdicts without building a CheckResult.

analyze_many keeps a stack's analyses as columns (AnalysisStack): the
spectra, the integer facts, the color class sizes and colors, and one twin
table, from the eigensolve on. run_checks_many is the claim table: it
decides every claim of a stack at once from those columns, as numpy columns
(slack, holds, present) over a fixed slot layout per order, and makes the
same reports run_checks would. Labels, reasons and failure witnesses stay
with the checkers: a new shape takes its keys from run_checks on its first
graph, and run_checks decides every graph with a failed claim or a
non-finite slack; only these graphs build a GraphAnalysis row. A passing
report reads its record fields and summary from the columns. A sweep
decides each stack of more than one graph by the table; one graph alone
(verify, analyze, tables) is analyzed by analyze and decided by run_checks,
which cost less alone. Per graph stay the colorings the greedy start leaves
unproven (every max-l1 coloring) and the record text.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import os
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from distlap.analysis import AnalysisStack, GraphAnalysis, GraphSummary
from distlap.coloring import _to_result, greedy_starts, max_ell1_colors, optimal_colors
from distlap.eigen import (
    INT_TOL,
    count_at_least,
    counts_at_least,
    eig_symmetric,
    multiplicities,
    multiplicity,
)
from distlap.graphs import MAX_VERTICES, Graph, is_complete_multipartite, parse_graph6, to_graph6
from distlap.metric import distance_laplacian, distance_stack
from distlap.twins import (
    complement_component_count,
    complement_component_counts,
    twin_classes,
    twin_table,
)


def _color(coloring_mode: str) -> Callable[..., list[int]]:
    """The colors function of a coloring mode."""
    if coloring_mode not in ("default", "max-l1"):
        raise ValueError(f"unknown coloring mode {coloring_mode!r}")
    return max_ell1_colors if coloring_mode == "max-l1" else optimal_colors


def analyze_many(graphs: Sequence[Graph], coloring_mode: str = "default") -> AnalysisStack:
    """The AnalysisStack of same-order connected graphs, every fact computed
    for the whole stack at once.

    Distances, distance Laplacians and spectra come from one distance kernel
    and one numpy.linalg.eigvalsh call; degrees, transmissions, m, the
    diameters, the Wiener indices and the universal-vertex counts are
    reductions of the distance stack, the twin classes one twin_table of its
    adjacency (distance 1), and the complement component counts one
    complement_component_counts call. Every greedy DSATUR coloring and
    greedy clique comes from one greedy_starts call; the per-graph coloring
    runs only where the clique bound leaves the greedy coloring unproven
    (and for every graph in max-l1 mode), and its colors replace the greedy
    ones in the color array. The class sizes are each row's sorted bincount
    of colors, and every spectral count is one comparison of the spectra
    with a threshold column (counts_at_least, multiplicities); nothing else
    is computed per graph. coloring_mode "max-l1" uses an optimal coloring with
    the largest possible first class (guarded to n <= 16) instead of the
    default optimal coloring. A disconnected graph anywhere in the stack
    raises ValueError (from distance_stack). An empty stack is the empty
    list.
    """
    color = _color(coloring_mode)
    if not graphs:
        return []
    n, b = graphs[0].n, len(graphs)
    dist = distance_stack(graphs)
    values = eig_symmetric(distance_laplacian(dist))
    adjacency = dist == 1
    degrees = adjacency.sum(axis=2)
    transmissions = dist.sum(axis=2)
    twins = twin_table(adjacency, degrees, transmissions)
    colors, cliques = greedy_starts(adjacency)
    # default mode: a greedy coloring no larger than the greedy clique is optimal
    todo = (np.arange(b) if coloring_mode == "max-l1"
            else np.flatnonzero(colors.max(axis=1) >= cliques))
    for i, start, clique in zip(todo.tolist(), colors[todo].tolist(), cliques[todo].tolist()):
        colors[i] = color(graphs[i], (start, clique))
    held = np.bincount((colors + n * np.arange(b)[:, None]).ravel(), minlength=b * n)
    sizes = -np.sort(-held.reshape(b, n), axis=1)
    chi = (sizes > 0).sum(axis=1)
    ceil_n_chi = -(-n // chi)
    m_ge_b = counts_at_least(values, n + ceil_n_chi)
    ell = sizes[:, :n // 2]
    block_counts = np.where(ell >= 2, counts_at_least(values[:, None], n + ell), 0)
    facts = np.stack((chi, n + ceil_n_chi, ceil_n_chi, dist.max(axis=(1, 2)),
                      transmissions.sum(axis=1) // 2, degrees.sum(axis=1) // 2, m_ge_b,
                      n - m_ge_b, multiplicities(values, n),
                      complement_component_counts(adjacency), (degrees == n - 1).sum(axis=1)),
                     axis=1).astype(np.int64, copy=False)
    return AnalysisStack(graphs, values, facts, sizes, block_counts, colors, twins,
                         multiplicities(values[twins.graph], twins.forced_value))


def analyze(g: Graph, coloring_mode: str = "default") -> GraphAnalysis:
    """The analysis of one connected graph: the row analyze_many gives it in
    any stack, computed for it alone.

    On one graph a stack's columns cost more numpy calls than they save, so
    the facts are read from Python lists: m and the universal-vertex count
    from the bit counts of the adjacency masks, the twin classes from dicts
    of the masks (twin_classes), and the spectral counts by bisecting the
    spectrum at each threshold (count_at_least, multiplicity), which makes
    the comparisons the columns make. The coloring, its greedy start and
    the complement component count are per-graph too; the distances and the
    spectrum come from the same kernels as a stack's.
    """
    color = _color(coloring_mode)
    n = g.n
    dist = distance_stack([g])
    spectrum = eig_symmetric(distance_laplacian(dist))[0].tolist()
    transmissions = dist[0].sum(axis=1).tolist()
    twins = twin_classes(g, transmissions)
    coloring = _to_result(color(g))
    degrees = [mask.bit_count() for mask in g.adj]
    rising = spectrum[::-1]
    # b_chi and n + ell_j (classes of size >= 2) are counted from above, n
    # and the twin classes' forced values by multiplicity
    chi = coloring.chi
    ceil_n_chi = -(-n // chi)
    m_ge_b = count_at_least(rising, n + ceil_n_chi)
    return GraphAnalysis(  # positionally, in field order
        g, to_graph6(g), n, sum(degrees) // 2, chi, n + ceil_n_chi, ceil_n_chi, int(dist.max()),
        sum(transmissions) // 2, spectrum, coloring, twins, complement_component_count(g),
        degrees.count(n - 1), m_ge_b, n - m_ge_b,
        tuple([count_at_least(rising, n + s) for s in coloring.sizes if s >= 2]),
        multiplicity(rising, n), tuple([multiplicity(rising, t.forced_value) for t in twins]))


class CheckResult(NamedTuple):
    """Outcome of one checker: the slack of each claim in the order made, the
    failed claims, or the failed hypothesis that makes it not applicable; the
    verdict, `applicable` and witness follow from these. CheckReport.results
    builds them from a report's claims. Never mutate a result: the default
    slack is shared."""

    check_id: str
    slack: dict[str, float] = {}
    violations: tuple[dict, ...] = ()
    reason: str | None = None

    @property
    def applicable(self) -> bool:
        return self.reason is None

    @property
    def verdict(self) -> str:
        if self.reason is not None:
            return "not-applicable"
        return "fail" if self.violations else "pass"

    @property
    def witness(self) -> dict | None:
        return {"violations": list(self.violations)} if self.verdict == "fail" else None


class CheckReport:
    """One graph's claims, in check order, as run_checks has its checkers
    append them, and the results and verdicts read from them.

    `keys` holds, for each check in turn, None and the check id, then False
    and the reason if the check's hypothesis fails, then the label of each
    claim the check makes. `slacks` holds each claim's slack lhs - rhs as a
    Python float, in label order, and `failed` holds (check position,
    violation entry) for each claim that does not hold. A tuple of `keys` is
    the report's record shape, which fixes its record text up to the slacks;
    the reports run_checks_many fills share their shape's keys tuple, and
    hold their graph's row of the stack rather than its analysis, which
    `analysis` builds when read.
    """

    __slots__ = ("_analysis", "_stack", "_row", "_head", "keys", "slacks", "failed", "_results",
                 "_entry")

    def __init__(self, analysis: GraphAnalysis | None, keys: Sequence = (),
                 entry: tuple | None = None, slacks: Sequence[float] = (),
                 stack: AnalysisStack | None = None, row: int = 0, head: tuple | None = None):
        """An empty report of `analysis` for run_checks to fill, or a passing
        report of run_checks_many: graph `row` of `stack` with its head (as
        AnalysisStack.heads gives it), its shape's keys tuple and _template
        entry, and its slacks."""
        self._analysis, self._stack, self._row, self._head = analysis, stack, row, head
        self.keys, self.slacks, self.failed = keys or [], slacks or [], []
        self._results = None
        self._entry = entry

    @property
    def analysis(self) -> GraphAnalysis:
        if self._analysis is None:
            self._analysis = self._stack[self._row]
        return self._analysis

    @property
    def head(self) -> tuple:
        """(graph6, n, m, chi, b_chi, dl1) of the graph: what its records
        and its GraphSummary read."""
        if self._head is None:
            a = self.analysis
            self._head = (a.graph6, a.n, a.m, a.chi, a.b_chi, a.dl1)
        return self._head

    @property
    def summary(self) -> GraphSummary:
        graph6, n, _, chi, _, dl1 = self.head
        return GraphSummary(graph6, n, chi, dl1)

    def claim(self, label: str, lhs, rhs, holds: bool, members: Sequence[int] | None = None):
        """Append claim `label`. `holds` is exact: an integer comparison, or
        for values[k] >= c a count of eigenvalues >= c above k. The violation
        entry of a claim that does not hold names lhs, rhs and, if given, the
        twin class's members."""
        self.keys.append(label)
        self.slacks.append(float(lhs - rhs))
        if not holds:
            entry = {"claim": label, "lhs": float(lhs), "rhs": float(rhs)}
            if members is not None:
                entry["members"] = list(members)
            self.failed.append((self.keys.count(None) - 1, entry))  # checks begun, less one

    @property
    def results(self) -> list[CheckResult]:
        """One CheckResult per check, in order."""
        if self._results is None:
            out, at = [], 0
            for i, (check_id, reason, labels) in enumerate(_checks(self.keys)):
                end = at + len(labels)
                violations = tuple([v for k, v in self.failed if k == i])
                out.append(CheckResult(
                    check_id, dict(zip(labels, self.slacks[at:end])), violations, reason))
                at = end
            self._results = out
        return self._results

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.verdict == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def _record_template(self) -> tuple:
        """The record template of the report's shape, with its verdicts (_template)."""
        if self._entry is None:
            self._entry = _template(tuple(self.keys))
        return self._entry

    @property
    def verdicts(self) -> tuple[str, ...]:
        """The verdict of each check, in order."""
        if self.failed:
            return tuple([r.verdict for r in self.results])
        return self._record_template()[2]


def _checks(keys: Sequence) -> list[tuple[str, str | None, tuple[str, ...]]]:
    """(check id, reason, labels) of each check of a report's keys, in order."""
    heads = [i for i, k in enumerate(keys) if k is None]
    out = []
    for start, end in zip(heads, [*heads[1:], len(keys)]):
        check_id, rest = keys[start + 1], keys[start + 2:end]
        reason = None
        if rest and rest[0] is False:
            reason, rest = rest[1], rest[2:]
        out.append((check_id, reason, tuple(rest)))
    return out


# ---------------------------------------------------------------------------
# individual checkers
# ---------------------------------------------------------------------------

def check_ah_bound(a: GraphAnalysis, report: CheckReport) -> str | None:
    """Spectral radius lower bound dL1 >= n + ceil(n/chi) for incomplete graphs."""
    if a.chi > a.n - 1:
        return "graph is complete"
    report.claim("dl1_minus_b_chi", a.values[0], a.b_chi, a.m_ge_b > 0)


def check_color_majorization(a: GraphAnalysis, report: CheckReport) -> None:
    """Block lower bounds from the color-class sizes of an optimal coloring.

    The first ell_1 - 1 eigenvalues must reach n + ell_1, and for each class of
    size >= 2 the next block of ell_j - 1 eigenvalues must reach n + ell_j.
    """
    values, n, s_j = a.values, a.n, 0
    for label, ell_j, count in zip(_BLOCK_LABELS, a.coloring.sizes, a.block_counts):
        s_j += ell_j - 1  # block j ends at values[s_j - 1], nonincreasing: its least
        report.claim(label, values[s_j - 1], n + ell_j, count >= s_j)


_BLOCK_LABELS = tuple(f"block_{j}" for j in range(1, MAX_VERTICES + 1))  # block j's label


def check_many_above(a: GraphAnalysis, report: CheckReport) -> str | None:
    """Counting bounds around the chromatic threshold b_chi."""
    if a.chi > a.n - 1:
        return "chi = n (complete graph)"
    m, ell1m1, ceilm1 = a.m_ge_b, a.coloring.sizes[0] - 1, a.ceil_n_chi - 1
    report.claim("count_ge_b_minus_ell1m1", m, ell1m1, m >= ell1m1)
    report.claim("count_ge_b_minus_ceilm1", m, ceilm1, m >= ceilm1)


def check_k_range(a: GraphAnalysis, report: CheckReport) -> str | None:
    """Literal range claim dL_k >= b_chi for 2 <= k <= ceil(n/chi)-1, plus the
    stronger second-eigenvalue sub-check whenever chi <= n-2."""
    if a.n < 4:
        return "n < 4"
    if a.chi > a.n - 1:
        return "chi = n (complete graph)"
    values, b, m, hi = a.values, a.b_chi, a.m_ge_b, a.ceil_n_chi - 1
    if hi >= 2:  # the least of dL_2 .. dL_hi, values[1 .. hi - 1], is the last
        report.claim("k_range", values[hi - 1], b, m >= hi)
    if a.chi <= a.n - 2:
        report.claim("second_eigenvalue", values[1], b, m >= 2)


def check_interval_sandwich(a: GraphAnalysis, report: CheckReport) -> None:
    """Sandwich ell_1 - 1 <= m([b_chi, dL1]) <= n - c(complement), the ell_1 >= 4
    special case, and the universal-vertex upper bound for incomplete graphs."""
    m, n, ell1 = a.m_ge_b, a.n, a.coloring.sizes[0]
    complement, universal = n - a.complement_components, n - a.universal_vertices - 1
    report.claim("count_minus_ell1m1", m, ell1 - 1, m >= ell1 - 1)
    if ell1 >= 4:
        report.claim("count_minus_3", m, 3, m >= 3)
    report.claim("count_minus_complement_bound", m, complement, m <= complement)
    if a.chi <= n - 1:
        report.claim("count_minus_universal_bound", m, universal, m <= universal)


def check_n_multiplicity(a: GraphAnalysis, report: CheckReport) -> None:
    """Multiplicity of the eigenvalue n equals c(complement) - 1, exactly."""
    mu, cm1 = a.mu_at_n, a.complement_components - 1
    report.claim("mu_at_n_minus_cm1", mu, cm1, mu == cm1)


@functools.cache
def _twin_labels(i: int) -> tuple[str, str, str, str]:
    """The labels of the claims of the twin class of rank i."""
    return f"twin{i}_mult", f"twin{i}_lower", f"twin{i}_b_chi", f"twin{i}_interval_count"


def _twin_refine(a: GraphAnalysis, report: CheckReport, kind: str) -> str | None:
    """Claims of the `kind` twin classes, keyed twin{i}_* by the class's rank i by
    (forced value, size, |external|): tied classes make equal claims, so no key
    holds a label. Each claim is lhs >= rhs; a failing one's violation entry
    names the class's members."""
    classes = [(t, mult) for t, mult in zip(a.twins, a.twin_mults) if t.kind == kind]
    if not classes:
        return f"no {kind} twin class"
    classes.sort(key=lambda c: (c[0].forced_value, len(c[0].members), len(c[0].external)))
    n = a.n
    for i, (t, mult) in enumerate(classes, start=1):
        members, forced = t.members, t.forced_value
        compression = len(members) + len(t.external) if kind == "clique" else len(t.external)
        mult_label, lower_label, b_chi_label, count_label = _twin_labels(i)
        # (a) the forced eigenvalue is realized with multiplicity >= s - 1;
        # (b) compression lower estimate on the forced eigenvalue
        report.claim(mult_label, mult, t.forced_mult, mult >= t.forced_mult, members)
        report.claim(lower_label, forced, 2 * n - compression, forced >= 2 * n - compression,
                     members)
        # (c) chromatic criterion pushing the class above b_chi
        if compression <= n - a.ceil_n_chi:
            report.claim(b_chi_label, forced, a.b_chi, forced >= a.b_chi, members)
            s1 = len(members) - 1
            report.claim(count_label, a.m_ge_b, s1, a.m_ge_b >= s1, members)


def check_clique_refine(a: GraphAnalysis, report: CheckReport) -> str | None:
    """Clique-twin forced eigenvalue Tr+1: realization, lower estimate 2n-s-|N|,
    and the chromatic criterion s+|N| <= n - ceil(n/chi)."""
    return _twin_refine(a, report, "clique")


def check_indep_refine(a: GraphAnalysis, report: CheckReport) -> str | None:
    """Independent-twin forced eigenvalue Tr+2: realization, lower estimate 2n-|N|,
    and the chromatic criterion |N| <= n - ceil(n/chi)."""
    return _twin_refine(a, report, "independent")


def check_diameter_refine(a: GraphAnalysis, report: CheckReport) -> str | None:
    """Distribution bounds below b_chi, sharpened when the diameter is >= 3;
    also re-asserts the counting identity as a side condition."""
    if a.n < 5:
        return "n < 5"
    if a.chi > a.n - 1:
        return "chi = n (complete graph)"
    mu, n, bound = a.mu_below_b, a.n, a.n - a.ceil_n_chi + 1
    report.claim("mu_below_minus_bound", mu, bound, mu <= bound)
    if a.diameter >= 3:
        bound = n - max(2, a.ceil_n_chi - 1)
        report.claim("mu_below_minus_diam_bound", mu, bound, mu <= bound)
    report.claim("counting_identity", mu + a.m_ge_b, n, mu + a.m_ge_b == n)


CHECKS: tuple[tuple[str, Callable[[GraphAnalysis, CheckReport], str | None]], ...] = (
    ("ah_bound", check_ah_bound),
    ("color_majorization", check_color_majorization),
    ("many_above_b_chi", check_many_above),
    ("k_range", check_k_range),
    ("interval_sandwich", check_interval_sandwich),
    ("n_multiplicity", check_n_multiplicity),
    ("clique_twin_refine", check_clique_refine),
    ("indep_twin_refine", check_indep_refine),
    ("diameter_refine", check_diameter_refine),
)


def run_checks(a: GraphAnalysis) -> CheckReport:
    """The report of every check on a, in CHECKS order: each check appends its
    claims to the report, or returns the reason its hypothesis fails before it
    makes any."""
    report = CheckReport(a)
    keys = report.keys
    for check_id, check in CHECKS:
        keys += (None, check_id)
        reason = check(a, report)
        if reason is not None:
            keys += (False, reason)
    return report


# ---------------------------------------------------------------------------
# the claim table: every check of a stack at once
# ---------------------------------------------------------------------------

# (n, packed presence and gate bits) -> (keys, _template entry) of each shape met
_SHAPES: dict[tuple[int, bytes], tuple[tuple, tuple]] = {}


def run_checks_many(stack: AnalysisStack) -> list[CheckReport]:
    """The reports run_checks makes of the analyses of a stack, in order,
    with every claim of the nine checks decided for the whole stack at once,
    from the stack's columns.

    Each claim has a column of a fixed slot layout for order n, in CHECKS
    and claim order: dl1, h = n // 2 blocks, two many-above, two k-range,
    four interval, one n-multiplicity, four per twin rank for h clique and
    h independent ranks, then three diameter claims. Each column holds the
    claim's slack lhs - rhs, whether it holds (the integer comparison its
    checker makes) and whether the graph makes it; a gate bit per check says
    its hypothesis fails. Twin ranks come from one stable lexsort of the
    stack's twin table, in least-member order, on (graph, kind, forced
    value, size, |external|), as _twin_refine sorts them.

    A graph's shape is (n, its packed presence and gate bits). The first
    graph of a shape met is also decided by run_checks, whose keys the shape
    takes (so labels and reasons are written only in the checkers) once its
    slacks equal the table's. Every passing graph gets a CheckReport sharing
    its shape's keys tuple and _template entry, with its present slacks in
    slot order and its head, but no GraphAnalysis until one is read. A graph
    with a failed claim or a non-finite slack is decided by run_checks, so
    witnesses have one implementation. Only those graphs and the first of
    each new shape build their row of the stack.
    """
    if not len(stack):
        return []
    n, values, sizes, counts = stack.n, stack.values, stack.sizes, stack.block_counts
    chi, b_chi, ceil, diameter, _, _, m, mu_below, mu_at_n, components, universal = stack.facts.T
    b, h = len(stack), n // 2
    blocks = (sizes >= 2).sum(axis=1)
    slack = np.zeros((b, 13 + 9 * h))
    holds = np.ones(slack.shape, dtype=bool)
    present = np.zeros(slack.shape, dtype=bool)

    def claim(slot, lhs, rhs, holds_, present_=True, rows=slice(None)):
        slack[rows, slot], holds[rows, slot], present[rows, slot] = lhs - rhs, holds_, present_

    def value(k):  # values[k] of each graph, for a column of k each; clipped where absent
        return np.take_along_axis(values, np.clip(k, 0, n - 1), axis=1)

    complete = chi > n - 1
    ell1 = sizes[:, 0]
    claim(0, values[:, 0], b_chi, m > 0, ~complete)
    # block j ends at values[s_j - 1], s_j = the sum of ell_i - 1 over i <= j
    ell = sizes[:, :h]
    s = np.cumsum(ell - 1, axis=1)
    claim(slice(1, 1 + h), value(s - 1), n + ell, counts >= s, np.arange(h) < blocks[:, None])
    at = 1 + h
    claim(at, m, ell1 - 1, m >= ell1 - 1, ~complete)
    claim(at + 1, m, ceil - 1, m >= ceil - 1, ~complete)
    k_gate = complete | (n < 4)
    hi = ceil - 1
    claim(at + 2, value(hi[:, None] - 1)[:, 0], b_chi, m >= hi, ~k_gate & (hi >= 2))
    # made only when n >= 4; the index is clamped for n = 1
    claim(at + 3, values[:, min(1, n - 1)], b_chi, m >= 2, ~k_gate & (chi <= n - 2))
    claim(at + 4, m, ell1 - 1, m >= ell1 - 1)
    claim(at + 5, m, 3, m >= 3, ell1 >= 4)
    claim(at + 6, m, n - components, m <= n - components)
    claim(at + 7, m, n - universal - 1, m <= n - universal - 1, ~complete)
    claim(at + 8, mu_at_n, components - 1, mu_at_n == components - 1)
    at += 9

    twins = stack.twins
    has_kind = np.zeros((b, 2), dtype=bool)  # [:, 0] clique, [:, 1] independent
    if len(twins.graph):
        graph, kind, size, external = twins.graph, twins.kind, twins.size, twins.external
        forced, forced_mult, mult = twins.forced_value, twins.forced_mult, stack.twin_mults
        order = np.lexsort((external, size, forced, kind, graph))
        group = (2 * graph + kind)[order]
        rank = np.empty_like(order)  # place among the graph's classes of its kind
        rank[order] = np.arange(len(order)) - np.searchsorted(group, group)
        has_kind[graph, kind] = True
        slot = at + 4 * (h * kind + rank)
        compression = external + size * (kind == 0)
        chromatic = compression <= n - ceil[graph]
        mg = m[graph]
        claim(slot, mult, forced_mult, mult >= forced_mult, rows=graph)
        claim(slot + 1, forced, 2 * n - compression, forced >= 2 * n - compression, rows=graph)
        claim(slot + 2, forced, b_chi[graph], forced >= b_chi[graph], chromatic, graph)
        claim(slot + 3, mg, size - 1, mg >= size - 1, chromatic, graph)
    at += 8 * h
    d_gate = complete | (n < 5)
    bound = n - ceil + 1
    claim(at, mu_below, bound, mu_below <= bound, ~d_gate)
    bound = n - np.maximum(2, ceil - 1)
    claim(at + 1, mu_below, bound, mu_below <= bound, ~d_gate & (diameter >= 3))
    claim(at + 2, mu_below + m, n, mu_below + m == n, ~d_gate)

    no = np.zeros(b, dtype=bool)
    gates = np.stack((complete, no, complete, k_gate, no, no, ~has_kind[:, 0], ~has_kind[:, 1],
                      d_gate), axis=1)
    packed = np.packbits(np.concatenate((present, gates), axis=1), axis=1)
    lengths = present.sum(axis=1)
    ends = np.cumsum(lengths)
    starts, ends = (ends - lengths).tolist(), ends.tolist()
    flat = slack[present].tolist()  # each graph's present slacks, in slot order
    passing = np.flatnonzero(~(present & ~(holds & np.isfinite(slack))).any(axis=1))
    _, first, shape_ids = np.unique(packed[passing].view(f"V{packed.shape[1]}")[:, 0],
                                    return_index=True, return_inverse=True)
    shape_of = np.full(b, -1)  # each passing graph's shape, -1 for one run_checks decides
    shape_of[passing] = shape_ids
    shapes = [_shape(n, packed[i].tobytes(), stack, i, flat[starts[i]:ends[i]])
              for i in passing[first].tolist()]
    return [run_checks(stack[i]) if k < 0
            else CheckReport(None, *shapes[k], flat[start:end], stack, i, head)
            for i, (k, start, end, head) in enumerate(zip(shape_of.tolist(), starts, ends,
                                                          stack.heads()))]


def _shape(n: int, bits: bytes, stack: AnalysisStack, i: int,
           slacks: list[float]) -> tuple[tuple, tuple]:
    """The keys and _template entry of the shape (n, bits), taken from
    run_checks on graph i of the stack, a passing graph of the shape whose
    table slacks are `slacks`, if the shape is new. _SHAPES keeps the
    TEMPLATE_SHAPES shapes last added."""
    key = (n, bits)
    if key not in _SHAPES:
        a = stack[i]
        report = run_checks(a)
        if report.failed or report.slacks != slacks:
            raise RuntimeError(f"the claim table disagrees with run_checks on {a.graph6}")
        keys = tuple(report.keys)
        if len(_SHAPES) >= TEMPLATE_SHAPES:
            del _SHAPES[next(iter(_SHAPES))]
        _SHAPES[key] = keys, _template(keys)
    return _SHAPES[key]


BATCH = 512  # graphs per analyze_many call in a sweep


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _sweep_batch(each: Callable, coloring_mode: str, batch: Sequence[Graph]) -> list:
    stack = analyze_many(batch, coloring_mode)
    # alone, a graph's checks cost less through run_checks than through the table
    reports = run_checks_many(stack) if len(stack) > 1 else map(run_checks, stack)
    return [each(report) for report in reports]


def sweep(graphs: Sequence[Graph], each: Callable[[CheckReport], object],
          coloring_mode: str = "default", jobs: int = 1) -> Iterator:
    """Yield each(report) for the report run_checks makes of the analysis of
    every graph, in order.

    Graphs are analyzed BATCH at a time by min(jobs, usable CPUs) spawned
    workers (serially for one). Each stack of more than one analysis is
    decided by the claim table (run_checks_many), a stack of one by
    run_checks; the reports are the same. `each` runs in the worker, so only
    what it returns is sent back; it must pickle, as a module-level function
    does.
    """
    work = functools.partial(_sweep_batch, each, coloring_mode)
    slices = (graphs[i:i + BATCH] for i in range(0, len(graphs), BATCH))
    jobs = min(jobs, _usable_cpus())
    if jobs == 1:
        yield from chain.from_iterable(map(work, slices))
        return
    import multiprocessing  # here, not at the top: only the pool needs it

    # spawn, not fork: the parent may already hold BLAS threads
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        yield from chain.from_iterable(pool.imap(work, slices))


# ---------------------------------------------------------------------------
# corpus-level extremal audit
# ---------------------------------------------------------------------------

@dataclass
class ExtremalAudit:
    """Minimum spectral radius at fixed chromatic number over an exhaustive corpus."""

    n: int
    chi: int
    expected_min: int            # n + ceil(n/chi)
    observed_min: float
    graphs_considered: int
    minimizers: list[str]        # graph6 of every minimizer
    minimizer_parts: list[tuple[int, ...] | None]
    failures: list[str]          # hard violations of the extremal theorem
    findings: list[dict]         # balanced-parts sub-claim violations (reported, not failed)

    @property
    def ok(self) -> bool:
        return not self.failures


def audit_extremal(n: int, chi: int,
                   analyses: Iterable[GraphAnalysis | GraphSummary]) -> ExtremalAudit:
    """Audit the minimum-dL1 theorem at fixed chi over all connected n-vertex graphs.

    Hard assertions: the minimum equals n + ceil(n/chi) and every minimizer is a
    complete chi-partite graph whose largest part is ceil(n/chi). The stronger
    balanced-parts clause (every part of size floor(n/chi) or ceil(n/chi)) is
    audited separately: minimizers violating it are reported as findings, never
    as failures, since the corpus itself decides whether the clause holds.

    One pass over `analyses`, which may be GraphAnalysis or GraphSummary
    records: only graph6, n, chi and dl1 are read, and only the minimizers are
    parsed back from graph6.
    """
    considered = 0
    observed = math.inf
    minimizers: list = []
    for a in analyses:
        if a.n != n or a.chi != chi:
            continue
        considered += 1
        if a.dl1 < observed:
            observed = a.dl1
            minimizers = [m for m in minimizers if m.dl1 <= observed + INT_TOL]
        if a.dl1 <= observed + INT_TOL:
            minimizers.append(a)
    if not considered:
        raise ValueError(f"corpus has no connected graph with n={n}, chi={chi}")

    ceil_nc, floor_nc = math.ceil(n / chi), n // chi
    expected = n + ceil_nc
    failures: list[str] = []
    findings: list[dict] = []
    if abs(observed - expected) > INT_TOL:
        failures.append(f"min dL1 = {observed!r}, expected {expected}")

    parts_list: list[tuple[int, ...] | None] = []
    for a in minimizers:
        parts = is_complete_multipartite(parse_graph6(a.graph6))
        parts_list.append(parts)
        if parts is None:
            failures.append(f"minimizer {a.graph6} is not complete multipartite")
            continue
        if len(parts) != chi:
            failures.append(f"minimizer {a.graph6} is complete {len(parts)}-partite, not {chi}")
        if parts[0] != ceil_nc:
            failures.append(f"minimizer {a.graph6} has largest part {parts[0]}, expected {ceil_nc}")
        if any(p not in (floor_nc, ceil_nc) for p in parts):
            findings.append({"graph6": a.graph6, "parts": list(parts),
                             "note": f"part outside {{{floor_nc},{ceil_nc}}} despite minimal dL1"})

    return ExtremalAudit(
        n=n, chi=chi, expected_min=expected, observed_min=float(observed),
        graphs_considered=considered,
        minimizers=[a.graph6 for a in minimizers],
        minimizer_parts=parts_list,
        failures=failures, findings=findings,
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

RECORD_FIELDS = ("graph6", "n", "m", "chi", "b_chi", "check_id", "applicable",
                 "verdict", "slack", "witness")
# the header line of CSV records, written once above every report_csv row
CSV_HEADER = ",".join(RECORD_FIELDS) + "\n"

# one encoder for every record; json.dumps(..., sort_keys=True) would build one per call
_ENCODER = json.JSONEncoder(sort_keys=True)
TEMPLATE_SHAPES = 1024  # report shapes kept; n = 8 has 263 over both coloring modes


@functools.lru_cache(maxsize=TEMPLATE_SHAPES)
def _template(shape: tuple) -> tuple[str, Callable[[list], tuple], tuple[str, ...]]:
    """The records of a report of this shape (its keys) with no failed
    claim, as json.dumps(record, sort_keys=True) writes each: a %-template of
    the text with one %s slot per value, the function picking the slots'
    values from [*slacks, b_chi, the graph's keys chi to n], and the report's
    verdicts. A record's slacks fill its slots in sorted label order (a
    finite float's str, numpy's too, is its JSON text)."""
    checks = _checks(shape)
    b_chi = sum(len(labels) for _, _, labels in checks)
    parts, verdicts, at = [], [], 0  # the JSON text, and the value index of each slot
    for check_id, reason, labels in checks:
        verdict = "pass" if reason is None else "not-applicable"
        verdicts.append(verdict)
        parts += ['{"applicable": ', "true" if reason is None else "false", ', "b_chi": ', b_chi,
                  ', "check_id": ', _ENCODER.encode(check_id), ", ", b_chi + 1, ', "slack": {']
        for k, i in enumerate(sorted(range(len(labels)), key=labels.__getitem__)):
            parts += [", " if k else "", _ENCODER.encode(labels[i]), ": ", at + i]
        at += len(labels)
        parts += [f'}}, "verdict": "{verdict}", "witness": ',
                  "null" if reason is None else _ENCODER.encode(reason), "}\n"]
    slots = [p for p in parts if isinstance(p, int)]
    text = "".join([p.replace("%", "%%") if isinstance(p, str) else "%s" for p in parts])
    return (text, operator.itemgetter(*slots) if slots else lambda values: (),
            tuple(verdicts))


def report_jsonl(report: CheckReport) -> str:
    """The JSON lines of one graph's records, one per check: each line is
    json.dumps(record, sort_keys=True) of the record of the graph's graph6,
    n, m, chi and b_chi and the result's check_id, applicable, verdict, slack
    and witness (a not-applicable result's reason, if it has no witness).
    The lines fill the cached template of the report's shape (_template),
    unless the report has a failed claim or a non-finite slack sum, which no
    template writes: then every record is encoded whole.
    """
    graph6, n, m, chi, b_chi, _ = report.head
    if not report.failed and math.isfinite(sum(report.slacks)):
        text, pick, _ = report._record_template()
        # keys chi to n sort together, so the graph writes them once for every record
        graph = f'"chi": {chi}, "graph6": {_ENCODER.encode(graph6)}, "m": {m}, "n": {n}'
        return text % pick([*report.slacks, b_chi, graph])
    return "".join([_ENCODER.encode({
        "graph6": graph6, "n": n, "m": m, "chi": chi, "b_chi": b_chi,
        "check_id": r.check_id, "applicable": r.applicable, "verdict": r.verdict,
        "slack": r.slack, "witness": r.reason if r.witness is None else r.witness,
    }) + "\n" for r in report.results])


def report_csv(report: CheckReport) -> str:
    """The CSV rows of one graph's records, one per check, in RECORD_FIELDS
    order and without the header (CSV_HEADER). Slack and a failure witness
    are JSON cells; a not-applicable result's witness cell is its reason."""
    head = report.head[:5]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        (*head, r.check_id, r.applicable, r.verdict,
         _ENCODER.encode(r.slack), r.reason if r.witness is None else _ENCODER.encode(r.witness))
        for r in report.results)
    return buf.getvalue()
