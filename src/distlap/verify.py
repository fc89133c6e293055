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

run_checks_many is the claim table: it decides every claim of a stack of
analyses at once, as numpy columns (slack, holds, present) over a fixed
slot layout per order, and makes the same reports run_checks would.
Labels, reasons and failure witnesses stay with the checkers: a shape takes
its keys from run_checks on its first graph, and run_checks decides every
graph with a failed claim or a non-finite slack. A sweep decides each stack
of more than one graph by the table; a stack of one (verify, analyze,
tables) by run_checks, which costs less alone. Per graph stay the spectral
counts of analyze_many, the colorings and the record text.
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

from distlap.coloring import ColoringResult, greedy_starts, max_ell1_coloring, optimal_coloring
from distlap.eigen import INT_TOL, count_at_least, eig_symmetric, multiplicity
from distlap.graphs import MAX_VERTICES, Graph, is_complete_multipartite, parse_graph6, to_graph6
from distlap.metric import distance_laplacian, distance_stack
from distlap.twins import (
    TwinClass,
    complement_component_count,
    complement_component_counts,
    stacked_twin_classes,
)


class GraphSummary(NamedTuple):
    """The fields of one analysis the extremal audit reads. Corpus workers send
    these back instead of whole GraphAnalysis records."""

    graph6: str
    n: int
    chi: int
    dl1: float


class GraphAnalysis(NamedTuple):
    """Everything the checkers need about one connected graph, computed once.

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


def analyze_many(graphs: Sequence[Graph], coloring_mode: str = "default") -> list[GraphAnalysis]:
    """Analyses of same-order connected graphs, in order, sharing one kernel.

    Distances, distance Laplacians and spectra are computed for the whole
    stack at once (one numpy.linalg.eigvalsh call), the transmissions,
    diameters and spectra are read from one `.tolist()` each, and the twin
    classes come from one stacked_twin_classes call on the adjacency
    (distance 1). A stack of more than one graph also takes every greedy
    DSATUR coloring and greedy clique from one greedy_starts call, so the
    per-graph coloring only searches where the clique bound leaves the greedy
    coloring unproven, and every complement component count from one
    complement_component_counts call. Per graph stay the colorings, m and the
    universal-vertex count (from the degrees, the bit counts of the adjacency
    masks), the graph6 text and the spectral counts, which bisect each
    graph's spectrum at its integer thresholds.
    coloring_mode "max-l1" uses an optimal coloring with the largest possible
    first class (guarded to n <= 16) instead of the default optimal coloring.
    A disconnected graph anywhere in the stack raises ValueError (from
    distance_stack).
    """
    if coloring_mode not in ("default", "max-l1"):
        raise ValueError(f"unknown coloring mode {coloring_mode!r}")
    if not graphs:
        return []
    n = graphs[0].n
    dist = distance_stack(graphs)
    values = eig_symmetric(distance_laplacian(dist))
    adjacency = dist == 1
    transmissions = dist.sum(axis=2).tolist()
    diameters = dist.max(axis=(1, 2)).tolist()
    spectra = values.tolist()
    twins = stacked_twin_classes(adjacency, transmissions)
    color = max_ell1_coloring if coloring_mode == "max-l1" else optimal_coloring
    # alone, a graph's greedy start and complement count cost less in Python
    # than the stacked kernels
    if len(graphs) > 1:
        starts = greedy_starts(adjacency)
        complements = complement_component_counts(adjacency)
    else:
        starts, complements = [None], [complement_component_count(graphs[0])]
    colorings = [color(g, start) for g, start in zip(graphs, starts)]

    out = []
    for g, tr, diameter, spectrum, coloring, twin, components in zip(
            graphs, transmissions, diameters, spectra, colorings, twins, complements):
        degrees = [mask.bit_count() for mask in g.adj]
        rising = spectrum[::-1]
        # b_chi and n + ell_j (classes of size >= 2) are counted from above, n
        # and the twin classes' forced values by multiplicity
        chi = coloring.chi
        ceil_n_chi = -(-n // chi)
        m_ge_b = count_at_least(rising, n + ceil_n_chi)
        out.append(GraphAnalysis(  # positionally, in field order
            g, to_graph6(g), n, sum(degrees) // 2, chi, n + ceil_n_chi, ceil_n_chi, diameter,
            sum(tr) // 2, spectrum, coloring, twin, components, degrees.count(n - 1), m_ge_b,
            n - m_ge_b, tuple([count_at_least(rising, n + s) for s in coloring.sizes if s >= 2]),
            multiplicity(rising, n), tuple([multiplicity(rising, t.forced_value) for t in twin])))
    return out


def analyze(g: Graph, coloring_mode: str = "default") -> GraphAnalysis:
    """The analysis of one connected graph: analyze_many on a stack of one."""
    return analyze_many([g], coloring_mode)[0]


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
    the reports run_checks_many fills share their shape's keys tuple.
    """

    __slots__ = ("analysis", "keys", "slacks", "failed", "_results", "_entry")

    def __init__(self, analysis: GraphAnalysis, keys: Sequence = (), entry: tuple | None = None,
                 slacks: Sequence[float] = ()):
        """An empty report for run_checks to fill, or a passing report of
        run_checks_many: its shape's keys tuple and _template entry, and its
        slacks."""
        self.analysis = analysis
        self.keys, self.slacks, self.failed = keys or [], slacks or [], []
        self._results = None
        self._entry = entry

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
# the facts of a GraphAnalysis the table reads as integer columns, n first
_FACTS = operator.attrgetter("n", "chi", "b_chi", "ceil_n_chi", "diameter", "m_ge_b",
                             "mu_below_b", "mu_at_n", "complement_components",
                             "universal_vertices")


def _padded(rows: Sequence[Sequence[int]], width: int) -> tuple[np.ndarray, np.ndarray]:
    """(len(rows), width) int64 array of rows of at most `width` ints, 0 after
    each row, and the rows' lengths."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    out = np.zeros((len(rows), width), dtype=np.int64)
    out[np.arange(width) < lengths[:, None]] = np.fromiter(chain.from_iterable(rows), np.int64,
                                                          int(lengths.sum()))
    return out, lengths


def run_checks_many(analyses: Sequence[GraphAnalysis]) -> list[CheckReport]:
    """The reports run_checks makes of same-order analyses, in order, with
    every claim of the nine checks decided for the whole stack at once.

    Each claim has a column of a fixed slot layout for order n, in CHECKS
    and claim order: dl1, h = n // 2 blocks, two many-above, two k-range,
    four interval, one n-multiplicity, four per twin rank for h clique and
    h independent ranks, then three diameter claims. Each column holds the
    claim's slack lhs - rhs, whether it holds (the integer comparison its
    checker makes) and whether the graph makes it; a gate bit per check says
    its hypothesis fails. Twin ranks come from one stable lexsort of the
    stack's classes, in least-member order, on (graph, kind, forced value,
    size, |external|), as _twin_refine sorts them.

    A graph's shape is (n, its packed presence and gate bits). The first
    graph of a shape met is also decided by run_checks, whose keys the shape
    takes (so labels and reasons are written only in the checkers) once its
    slacks equal the table's. Every passing graph gets a CheckReport sharing
    its shape's keys tuple and _template entry, with its present slacks in
    slot order. A graph with a failed claim or a non-finite slack is decided
    by run_checks, so witnesses have one implementation.
    """
    if not analyses:
        return []
    facts = np.array(list(map(_FACTS, analyses)), dtype=np.int64)
    n = int(facts[0, 0])
    if (facts[:, 0] != n).any():
        raise ValueError("a claim table needs analyses of one order")
    _, chi, b_chi, ceil, diameter, m, mu_below, mu_at_n, components, universal = facts.T
    b, h = len(analyses), n // 2
    values = np.array([a.values for a in analyses], dtype=np.float64)
    sizes, _ = _padded([a.coloring.sizes for a in analyses], n)
    counts, blocks = _padded([a.block_counts for a in analyses], h)
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

    classes = list(chain.from_iterable(a.twins for a in analyses))
    has_kind = np.zeros((b, 2), dtype=bool)  # [:, 0] clique, [:, 1] independent
    if classes:
        graph = np.repeat(np.arange(b), [len(a.twins) for a in analyses])
        kind, forced, size, external, forced_mult = np.array(
            [(t.kind != "clique", t.forced_value, len(t.members), len(t.external), t.forced_mult)
             for t in classes], dtype=np.int64).T
        mult = np.fromiter(chain.from_iterable(a.twin_mults for a in analyses), np.int64,
                           len(classes))
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
    shapes = [_shape(n, packed[i].tobytes(), analyses[i], flat[starts[i]:ends[i]])
              for i in passing[first].tolist()]
    return [run_checks(a) if k < 0 else CheckReport(a, *shapes[k], flat[start:end])
            for a, k, start, end in zip(analyses, shape_of.tolist(), starts, ends)]


def _shape(n: int, bits: bytes, a: GraphAnalysis, slacks: list[float]) -> tuple[tuple, tuple]:
    """The keys and _template entry of the shape (n, bits), taken from
    run_checks on a, a passing graph of the shape whose table slacks are
    `slacks`, if the shape is new. _SHAPES keeps the TEMPLATE_SHAPES
    shapes last added."""
    key = (n, bits)
    if key not in _SHAPES:
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
    analyses = analyze_many(batch, coloring_mode)
    # alone, a graph's checks cost less through run_checks than through the table
    reports = run_checks_many(analyses) if len(analyses) > 1 else map(run_checks, analyses)
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
    a = report.analysis
    if not report.failed and math.isfinite(sum(report.slacks)):
        text, pick, _ = report._record_template()
        # keys chi to n sort together, so the graph writes them once for every record
        graph = f'"chi": {a.chi}, "graph6": {_ENCODER.encode(a.graph6)}, "m": {a.m}, "n": {a.n}'
        return text % pick([*report.slacks, a.b_chi, graph])
    return "".join([_ENCODER.encode({
        "graph6": a.graph6, "n": a.n, "m": a.m, "chi": a.chi, "b_chi": a.b_chi,
        "check_id": r.check_id, "applicable": r.applicable, "verdict": r.verdict,
        "slack": r.slack, "witness": r.reason if r.witness is None else r.witness,
    }) + "\n" for r in report.results])


def report_csv(report: CheckReport) -> str:
    """The CSV rows of one graph's records, one per check, in RECORD_FIELDS
    order and without the header (CSV_HEADER). Slack and a failure witness
    are JSON cells; a not-applicable result's witness cell is its reason."""
    a = report.analysis
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        (a.graph6, a.n, a.m, a.chi, a.b_chi, r.check_id, r.applicable, r.verdict,
         _ENCODER.encode(r.slack), r.reason if r.witness is None else _ENCODER.encode(r.witness))
        for r in report.results)
    return buf.getvalue()
