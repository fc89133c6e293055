"""Checkers for every spectral bound, multiplicity, and distribution claim.

Each check_*(a, report) states its gates and claims once, and runs on either
reading of an analysis (analysis.py): a GraphAnalysis, whose facts are
Python scalars, or an AnalysisStack, whose facts are numpy columns with one
entry per graph. report.gate(reason, cond) marks a failed hypothesis, a
not-applicable verdict rather than a vacuous pass, after which the check
makes no claim. report.claim(label, lhs, rhs, holds, when) makes a claim
where `when` holds: its slack is lhs - rhs in the inequality's stated
orientation (slack 0 marks a tight bound), and `holds` is exact.

run_checks is the reference way a check is decided: it runs the checkers on
one GraphAnalysis into a CheckReport, which keeps each claim's label and
slack, and for a claim that fails its lhs, rhs and twin class members. A
report's CheckResults are read from its claims when asked for (pretty
verify, CSV, failing graphs). A report with no failed claim writes its JSON
records into the cached %-template of its shape (its check ids, reasons and
labels), which also holds its verdicts, so a corpus pass writes records and
tallies verdicts without building a CheckResult.

run_checks_many, the claim table, runs the same checkers once on a stack's
columns and makes the reports run_checks would; a sweep decides every stack
by it. A shape's keys come from the labels and reasons the checkers pass to
it. The table calls analyze on a graph of the stack alone, which reads the
per-graph kernels, not the stack's, and decides it by run_checks: the first
graph of each new shape, as a cross-check of its keys, slacks and block
counts, and every graph with a failed claim or a non-finite slack, so
witnesses have one implementation. A new shape that differs, or a graph the
table fails and run_checks does not, raises RuntimeError. One graph alone
(verify, analyze, tables) is analyzed by analyze and decided by run_checks.
Per graph stay the colorings the greedy start leaves unproven (every max-l1
coloring) and the record text.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from distlap.analysis import FACTS, AnalysisStack, GraphAnalysis, Head
from distlap.coloring import greedy_starts, max_ell1_colors, optimal_colors
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
    diameters and the universal-vertex counts are reductions of the
    distance stack, the twin classes one twin_table of its adjacency
    (distance 1), and the complement component counts one
    complement_component_counts call. Every greedy DSATUR coloring and
    greedy clique comes from one greedy_starts call; the per-graph coloring
    runs only where the clique bound leaves the greedy coloring unproven
    (and for every graph in max-l1 mode), and its colors replace the greedy
    ones in the color array. The class sizes are each row's sorted bincount
    of colors, and every spectral count is one comparison of the spectra
    with a threshold column (counts_at_least, multiplicities); nothing else
    is computed per graph. The integer facts are named columns, stacked in
    FACTS order. The stack keeps no colors, and no GraphAnalysis:
    analyze(graphs[i], coloring_mode) is graph i's. coloring_mode
    "max-l1" uses an optimal coloring with the largest possible first class
    (guarded to n <= 16) instead of the default optimal coloring. A
    disconnected graph anywhere in the stack raises ValueError (from
    distance_stack). An empty stack is the empty list.
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
    columns = {"chi": chi, "b_chi": n + ceil_n_chi, "ceil_n_chi": ceil_n_chi,
               "diameter": dist.max(axis=(1, 2)), "m": degrees.sum(axis=1) // 2,
               "m_ge_b": m_ge_b, "mu_below_b": n - m_ge_b, "mu_at_n": multiplicities(values, n),
               "complement_components": complement_component_counts(adjacency),
               "universal_vertices": (degrees == n - 1).sum(axis=1)}
    facts = np.stack([columns[name] for name in FACTS], axis=1).astype(np.int64, copy=False)
    return AnalysisStack(graphs, coloring_mode, values, facts, sizes, block_counts, twins,
                         multiplicities(values[twins.graph], twins.forced_value))


def analyze(g: Graph, coloring_mode: str = "default") -> GraphAnalysis:
    """The analysis of one connected graph, and the only code that builds a
    GraphAnalysis: the claim table calls it for the graphs of a stack it
    decides by run_checks.

    On one graph a stack's columns cost more numpy calls than they save, so
    the facts are read from Python lists: m and the universal-vertex count
    from the bit counts of the adjacency masks, the twin classes from dicts
    of the masks (twin_classes), and the spectral counts by bisecting the
    spectrum at each threshold (count_at_least, multiplicity), which makes
    the comparisons the columns make. The coloring, its greedy start and
    the complement component count are per-graph too, and the class sizes
    are counted from the colors; the distances and the spectrum come from
    the same kernels as a stack's.
    """
    color = _color(coloring_mode)
    n = g.n
    dist = distance_stack([g])
    spectrum = eig_symmetric(distance_laplacian(dist))[0].tolist()
    transmissions = dist[0].sum(axis=1).tolist()
    twins = twin_classes(g, transmissions)
    colors = color(g)
    sizes = tuple(sorted(Counter(colors).values(), reverse=True))
    degrees = [mask.bit_count() for mask in g.adj]
    rising = spectrum[::-1]
    # b_chi and n + ell_j (classes of size >= 2) are counted from above, n
    # and the twin classes' forced values by multiplicity
    chi = len(sizes)
    ceil_n_chi = -(-n // chi)
    m_ge_b = count_at_least(rising, n + ceil_n_chi)
    return GraphAnalysis(  # positionally, in field order
        g, to_graph6(g), n, sum(degrees) // 2, chi, n + ceil_n_chi, ceil_n_chi, int(dist.max()),
        sum(transmissions) // 2, spectrum, colors, sizes, twins, complement_component_count(g),
        degrees.count(n - 1), m_ge_b, n - m_ge_b,
        tuple([count_at_least(rising, n + s) for s in sizes if s >= 2]),
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
    the reports run_checks_many fills share their shape's keys tuple. `head`
    is the graph's Head, what its records and the extremal audit read.
    """

    __slots__ = ("head", "keys", "slacks", "failed", "_results", "_entry")

    def __init__(self, head: Head, keys: Sequence = (), entry: tuple | None = None,
                 slacks: Sequence[float] = ()):
        """A report of the graph of `head`: empty, for run_checks to fill, or
        a passing report of run_checks_many with its shape's keys tuple and
        _template entry, and its slacks."""
        self.head = head
        self.keys, self.slacks, self.failed = keys or [], slacks or [], []
        self._results = None
        self._entry = entry

    def begin(self, check_id: str) -> None:
        self.keys += (None, check_id)

    def gate(self, reason: str, cond: bool) -> bool:
        """Mark the check begun last not applicable for `reason` if cond holds,
        and return cond: the check then makes no claim."""
        if cond:
            self.keys += (False, reason)
        return cond

    def claim(self, label: str, lhs, rhs, holds: bool, when: bool = True,
              members: Sequence[int] | None = None):
        """Append claim `label` if the graph makes it (`when`). `holds` is
        exact: an integer comparison, or for values[k] >= c a count of
        eigenvalues >= c above k. The violation entry of a claim that does
        not hold names lhs, rhs and, if given, the twin class's members."""
        if not when:
            return
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

def check_ah_bound(a: GraphAnalysis, report: CheckReport) -> None:
    """Spectral radius lower bound dL1 >= n + ceil(n/chi) for incomplete graphs."""
    if report.gate("graph is complete", a.chi > a.n - 1):
        return
    report.claim("dl1_minus_b_chi", a.value(0), a.b_chi, a.m_ge_b > 0)


def check_color_majorization(a: GraphAnalysis, report: CheckReport) -> None:
    """Block lower bounds from the color-class sizes of an optimal coloring.

    The first ell_1 - 1 eigenvalues must reach n + ell_1, and for each class of
    size >= 2 the next block of ell_j - 1 eigenvalues must reach n + ell_j.
    """
    n, s_j = a.n, 0
    for label, (ell_j, count) in zip(_BLOCK_LABELS, a.blocks()):
        s_j += ell_j - 1  # block j ends at values[s_j - 1], nonincreasing: its least
        report.claim(label, a.value(s_j - 1), n + ell_j, count >= s_j, when=ell_j >= 2)


_BLOCK_LABELS = tuple(f"block_{j}" for j in range(1, MAX_VERTICES + 1))  # block j's label


def check_many_above(a: GraphAnalysis, report: CheckReport) -> None:
    """Counting bounds around the chromatic threshold b_chi."""
    if report.gate("chi = n (complete graph)", a.chi > a.n - 1):
        return
    m, ell1m1, ceilm1 = a.m_ge_b, a.ell1 - 1, a.ceil_n_chi - 1
    report.claim("count_ge_b_minus_ell1m1", m, ell1m1, m >= ell1m1)
    report.claim("count_ge_b_minus_ceilm1", m, ceilm1, m >= ceilm1)


def check_k_range(a: GraphAnalysis, report: CheckReport) -> None:
    """Literal range claim dL_k >= b_chi for 2 <= k <= ceil(n/chi)-1, plus the
    stronger second-eigenvalue sub-check whenever chi <= n-2."""
    if (report.gate("n < 4", a.n < 4)
            or report.gate("chi = n (complete graph)", a.chi > a.n - 1)):
        return
    b, m, hi = a.b_chi, a.m_ge_b, a.ceil_n_chi - 1
    # the least of dL_2 .. dL_hi, values[1 .. hi - 1], is the last
    report.claim("k_range", a.value(hi - 1), b, m >= hi, when=hi >= 2)
    report.claim("second_eigenvalue", a.value(1), b, m >= 2, when=a.chi <= a.n - 2)


def check_interval_sandwich(a: GraphAnalysis, report: CheckReport) -> None:
    """Sandwich ell_1 - 1 <= m([b_chi, dL1]) <= n - c(complement), the ell_1 >= 4
    special case, and the universal-vertex upper bound for incomplete graphs."""
    m, n, ell1 = a.m_ge_b, a.n, a.ell1
    complement, universal = n - a.complement_components, n - a.universal_vertices - 1
    report.claim("count_minus_ell1m1", m, ell1 - 1, m >= ell1 - 1)
    report.claim("count_minus_3", m, 3, m >= 3, when=ell1 >= 4)
    report.claim("count_minus_complement_bound", m, complement, m <= complement)
    report.claim("count_minus_universal_bound", m, universal, m <= universal,
                 when=a.chi <= n - 1)


def check_n_multiplicity(a: GraphAnalysis, report: CheckReport) -> None:
    """Multiplicity of the eigenvalue n equals c(complement) - 1, exactly."""
    mu, cm1 = a.mu_at_n, a.complement_components - 1
    report.claim("mu_at_n_minus_cm1", mu, cm1, mu == cm1)


@functools.cache
def _twin_labels(i: int) -> tuple[str, str, str, str]:
    """The labels of the claims of the twin class of rank i."""
    return f"twin{i}_mult", f"twin{i}_lower", f"twin{i}_b_chi", f"twin{i}_interval_count"


def _twin_refine(a: GraphAnalysis, report: CheckReport, kind: str) -> None:
    """Claims of the `kind` twin classes, keyed twin{i}_* by the class's rank i by
    (forced value, size, |external|): tied classes make equal claims, so no key
    holds a label. Each claim is lhs >= rhs; a failing one's violation entry
    names the class's members."""
    absent, ranks = a.ranked_twins(kind)
    if report.gate(f"no {kind} twin class", absent):
        return
    n, m, b, room = a.n, a.m_ge_b, a.b_chi, a.n - a.ceil_n_chi
    for i, (mult, forced_mult, forced, size, external, present, members) in enumerate(
            ranks, start=1):
        compression = size + external if kind == "clique" else external
        lower, s1 = 2 * n - compression, size - 1
        mult_label, lower_label, b_chi_label, count_label = _twin_labels(i)
        # (a) the forced eigenvalue is realized with multiplicity >= s - 1;
        # (b) compression lower estimate on the forced eigenvalue
        report.claim(mult_label, mult, forced_mult, mult >= forced_mult, present, members)
        report.claim(lower_label, forced, lower, forced >= lower, present, members)
        # (c) chromatic criterion pushing the class above b_chi
        chromatic = present & (compression <= room)
        report.claim(b_chi_label, forced, b, forced >= b, chromatic, members)
        report.claim(count_label, m, s1, m >= s1, chromatic, members)


def check_clique_refine(a: GraphAnalysis, report: CheckReport) -> None:
    """Clique-twin forced eigenvalue Tr+1: realization, lower estimate 2n-s-|N|,
    and the chromatic criterion s+|N| <= n - ceil(n/chi)."""
    _twin_refine(a, report, "clique")


def check_indep_refine(a: GraphAnalysis, report: CheckReport) -> None:
    """Independent-twin forced eigenvalue Tr+2: realization, lower estimate 2n-|N|,
    and the chromatic criterion |N| <= n - ceil(n/chi)."""
    _twin_refine(a, report, "independent")


def check_diameter_refine(a: GraphAnalysis, report: CheckReport) -> None:
    """Distribution bounds below b_chi, sharpened when the diameter is >= 3;
    also re-asserts the counting identity as a side condition."""
    if (report.gate("n < 5", a.n < 5)
            or report.gate("chi = n (complete graph)", a.chi > a.n - 1)):
        return
    mu, n, bound = a.mu_below_b, a.n, a.n - a.ceil_n_chi + 1
    report.claim("mu_below_minus_bound", mu, bound, mu <= bound)
    bound = n - 2 - (a.ceil_n_chi > 3) * (a.ceil_n_chi - 3)  # n - max(2, ceil(n/chi) - 1)
    report.claim("mu_below_minus_diam_bound", mu, bound, mu <= bound, when=a.diameter >= 3)
    report.claim("counting_identity", mu + a.m_ge_b, n, mu + a.m_ge_b == n)


CHECKS: tuple[tuple[str, Callable[[GraphAnalysis, CheckReport], None]], ...] = (
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


def _decide(a, report):
    """Run every check of CHECKS on a, in order, into report; return it."""
    for check_id, check in CHECKS:
        report.begin(check_id)
        check(a, report)
    return report


def run_checks(a: GraphAnalysis) -> CheckReport:
    """The report of every check on a, in CHECKS order: each check appends its
    claims to the report, unless a gate of its hypothesis fails before it
    makes any."""
    return _decide(a, CheckReport(a.head))


# ---------------------------------------------------------------------------
# the claim table: every check of a stack at once
# ---------------------------------------------------------------------------

class _ClaimColumns:
    """The report the checkers fill on a stack's columns: for each gate and
    claim in call order, a bit column (the graphs it stops, or that make the
    claim), and each claim's slack and holds columns (every claim reads a
    column). `steps` pairs the keys each gives a report with its bit column,
    None for a check's head."""

    def __init__(self, b: int):
        self.b, self.active = b, None
        self.steps, self.bits, self.claimed, self.slack, self.holds = [], [], [], [], []

    def begin(self, check_id: str) -> None:
        self.steps.append(((None, check_id), None))
        self.active = np.ones(self.b, dtype=bool)  # the graphs no gate of the check stops

    def gate(self, reason: str, cond) -> bool:
        fired = self.active & cond
        self.active = self.active & ~fired
        self.steps.append(((False, reason), len(self.bits)))
        self.bits.append(fired)
        return False  # the check goes on: its claims are made by the graphs no gate stops

    def claim(self, label: str, lhs, rhs, holds, when=True, members=None) -> None:
        self.claimed.append(len(self.bits))
        self.steps.append(((label,), len(self.bits)))
        self.bits.append(self.active & when)
        self.slack.append(lhs - rhs)
        self.holds.append(holds)


# (claim layout, packed gate and claim bits) -> (keys, _template entry) of each shape met
_SHAPES: dict[tuple[int, bytes], tuple[tuple, tuple]] = {}
# the steps of each claim layout met (one per order n, while CHECKS stays), numbered
_LAYOUTS: dict[tuple, int] = {}


def run_checks_many(stack: AnalysisStack) -> list[CheckReport]:
    """The reports run_checks makes of the analyses of a stack, in order:
    the checkers run once on the stack's columns (_ClaimColumns).

    A graph's shape is the stack's claim layout with its packed gate and
    claim bits (_shape). Every passing graph gets a CheckReport sharing its
    shape's keys tuple and _template entry, with its slacks and its head. A
    graph with a failed claim or a non-finite slack is decided by run_checks
    on analyze of the graph alone, so witnesses have one implementation;
    where the table fails a claim and run_checks fails none, it raises
    RuntimeError. Only those graphs and the first of each new shape are
    analyzed alone.
    """
    if not len(stack):
        return []
    table = _decide(stack, _ClaimColumns(len(stack)))
    bits, slack, holds = (np.array(columns).T for columns in (table.bits, table.slack, table.holds))
    present = bits[:, table.claimed]
    packed = np.packbits(bits, axis=1)
    layout = _LAYOUTS.setdefault(tuple(table.steps), len(_LAYOUTS))
    lengths = present.sum(axis=1)
    ends = np.cumsum(lengths)
    starts, ends = (ends - lengths).tolist(), ends.tolist()
    flat = slack[present].tolist()  # each graph's present slacks, in claim order
    failing = (present & ~holds).any(axis=1)
    passing = np.flatnonzero(~(failing | (present & ~np.isfinite(slack)).any(axis=1)))
    _, first, shape_ids = np.unique(packed[passing].view(f"V{packed.shape[1]}")[:, 0],
                                    return_index=True, return_inverse=True)
    shape_of = np.full(len(stack), -1)  # each passing graph's shape, -1 for one run_checks decides
    shape_of[passing] = shape_ids
    shapes = [_shape((layout, packed[i].tobytes()), table, bits[i], stack, i,
                     flat[starts[i]:ends[i]])
              for i in passing[first].tolist()]
    reports = [run_checks(analyze(stack.graphs[i], stack.coloring_mode)) if k < 0
               else CheckReport(head, *shapes[k], flat[start:end])
               for i, (k, start, end, head) in enumerate(zip(shape_of.tolist(), starts, ends,
                                                             stack.heads()))]
    for i in np.flatnonzero(failing).tolist():
        if reports[i].ok:
            raise _disagreement(reports[i].head)
    return reports


def _disagreement(a: GraphAnalysis | Head) -> RuntimeError:
    return RuntimeError(f"the claim table disagrees with run_checks on {a.graph6}")


def _shape(key: tuple[int, bytes], table: _ClaimColumns, bits: np.ndarray, stack: AnalysisStack,
           i: int, slacks: list[float]) -> tuple[tuple, tuple]:
    """The keys and _template entry of the shape `key` of graph i of the
    stack, a passing graph whose gate and claim bits in `table` are `bits`
    and whose slacks are `slacks`. A new shape's keys are read from the
    table's steps and checked against run_checks on analyze of graph i
    alone, and its block counts against the analysis's: the one column that
    reaches a verdict only through `holds`, so no slack or key shows it.
    _SHAPES keeps the TEMPLATE_SHAPES shapes last added."""
    if key not in _SHAPES:
        bits, a = bits.tolist(), analyze(stack.graphs[i], stack.coloring_mode)
        keys = tuple([k for step, at in table.steps if at is None or bits[at] for k in step])
        report = run_checks(a)
        blocks = [*a.block_counts, *[0] * (stack.n // 2 - len(a.block_counts))]
        if (report.failed or tuple(report.keys) != keys or report.slacks != slacks
                or stack.block_counts[i].tolist() != blocks):
            raise _disagreement(a)
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
    return [each(report) for report in run_checks_many(analyze_many(batch, coloring_mode))]


def sweep(graphs: Sequence[Graph], each: Callable[[CheckReport], object],
          coloring_mode: str = "default", jobs: int = 1) -> Iterator:
    """Yield each(report) for the report run_checks makes of the analysis of
    every graph, in order.

    Graphs are analyzed BATCH at a time by min(jobs, usable CPUs) spawned
    workers (serially for one), and each stack is decided by the claim table
    (run_checks_many), which makes the reports run_checks would. `each` runs
    in the worker, so only what it returns is sent back; it must pickle, as a
    module-level function does.
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
                   analyses: Iterable[GraphAnalysis | Head]) -> ExtremalAudit:
    """Audit the minimum-dL1 theorem at fixed chi over all connected n-vertex graphs.

    Hard assertions: the minimum equals n + ceil(n/chi) and every minimizer is a
    complete chi-partite graph whose largest part is ceil(n/chi). The stronger
    balanced-parts clause (every part of size floor(n/chi) or ceil(n/chi)) is
    audited separately: minimizers violating it are reported as findings, never
    as failures, since the corpus itself decides whether the clause holds.

    One pass over `analyses`, which may be GraphAnalysis or Head records:
    only graph6, n, chi and dl1 are read, and only the minimizers are parsed
    back from graph6.
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
