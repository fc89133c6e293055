"""Checkers for every spectral bound, multiplicity, and distribution claim.

Each checker consumes an immutable GraphAnalysis and returns a CheckResult with
named slack values (always lhs - rhs in the inequality's stated orientation, so
slack 0 marks a tight bound). Hypothesis failures yield a not-applicable
verdict rather than a vacuous pass, keeping the gating visible in reports.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from distlap.coloring import ColoringResult, greedy_starts, max_ell1_coloring, optimal_coloring
from distlap.eigen import INT_TOL, count_at_least, eig_symmetric, multiplicity
from distlap.graphs import Graph, is_complete_multipartite, parse_graph6, to_graph6
from distlap.metric import DistanceData, distance_laplacian, distance_stack
from distlap.twins import TwinClass, complement_component_count, twin_classes, universal_vertex_count


class GraphSummary(NamedTuple):
    """The fields of one analysis the extremal audit reads. Corpus workers send
    these back instead of whole GraphAnalysis records."""

    graph6: str
    n: int
    chi: int
    dl1: float


@dataclass(frozen=True)
class GraphAnalysis:
    """Everything the checkers need about one connected graph, computed once.

    The scalar facts are plain fields: `chi` and `b_chi` = n + ceil(n/chi)
    come from `coloring`, the one optimal coloring every chi- and
    ell-parameterized check reads, and `dl1` is the largest eigenvalue.
    `values` is the DL spectrum, nonincreasing. The checkers decide every
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
    dl1: float
    dd: DistanceData
    values: np.ndarray
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
    def summary(self) -> GraphSummary:
        return GraphSummary(self.graph6, self.n, self.chi, self.dl1)

    @property
    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2


def analyze_many(graphs: Sequence[Graph], coloring_mode: str = "default") -> list[GraphAnalysis]:
    """Analyses of same-order connected graphs, in order, sharing one kernel.

    Distances, distance Laplacians and spectra are computed for the whole
    stack at once (one numpy.linalg.eigvalsh call), and so are the distance
    facts and, once each graph's coloring and twins are known, the spectral
    counts: each (graph, integer threshold) pair is one row of a stacked count.
    A stack of more than one graph also takes every greedy DSATUR coloring
    and greedy clique from one greedy_starts call, so the per-graph coloring
    only searches where the clique bound leaves the greedy coloring unproven.
    coloring_mode "max-l1" uses an optimal coloring with the largest possible
    first class (guarded to n <= 16) instead of the default optimal coloring.
    A disconnected graph anywhere in the stack raises ValueError (from
    distance_stack).
    """
    if coloring_mode not in ("default", "max-l1"):
        raise ValueError(f"unknown coloring mode {coloring_mode!r}")
    if not graphs:
        return []
    dist = distance_stack(graphs)
    values = eig_symmetric(distance_laplacian(dist))
    color = max_ell1_coloring if coloring_mode == "max-l1" else optimal_coloring
    # alone, a graph's greedy start costs less in Python than the stacked kernel
    starts = greedy_starts(dist == 1) if len(graphs) > 1 else [None]
    colorings = [color(g, start) for g, start in zip(graphs, starts)]
    dds = DistanceData.of_stack(dist)
    twins = [tuple(twin_classes(g, dd)) for g, dd in zip(graphs, dds)]

    n = graphs[0].n
    ceil_n_chi = [-(-n // c.chi) for c in colorings]
    b_chi = [n + c for c in ceil_n_chi]
    dl1 = values[:, 0].tolist()
    # each graph's thresholds: b_chi and n + ell_j (classes of size >= 2) are
    # counted from above, n and the twin classes' forced values by multiplicity.
    # A graph's spectrum is repeated once per threshold, one row each.
    above = [(b, *[n + s for s in c.sizes if s >= 2]) for b, c in zip(b_chi, colorings)]
    at = [(n, *[t.forced_value for t in ts]) for ts in twins]
    counts = iter(count_at_least(np.repeat(values, list(map(len, above)), axis=0),
                                 list(chain.from_iterable(above))).tolist()
                  + multiplicity(np.repeat(values, list(map(len, at)), axis=0),
                                 list(chain.from_iterable(at))).tolist())
    ge_counts = [tuple(islice(counts, len(cs))) for cs in above]
    at_counts = [tuple(islice(counts, len(cs))) for cs in at]

    return [
        GraphAnalysis(
            graph=g,
            graph6=to_graph6(g),
            n=n,
            m=g.m,
            chi=colorings[i].chi,
            b_chi=b_chi[i],
            ceil_n_chi=ceil_n_chi[i],
            dl1=dl1[i],
            dd=dds[i],
            values=values[i],
            coloring=colorings[i],
            twins=twins[i],
            complement_components=complement_component_count(g),
            universal_vertices=universal_vertex_count(g),
            m_ge_b=ge_counts[i][0],
            mu_below_b=n - ge_counts[i][0],
            block_counts=ge_counts[i][1:],
            mu_at_n=at_counts[i][0],
            twin_mults=at_counts[i][1:],
        )
        for i, g in enumerate(graphs)
    ]


def analyze(g: Graph, coloring_mode: str = "default") -> GraphAnalysis:
    """The analysis of one connected graph: analyze_many on a stack of one."""
    return analyze_many([g], coloring_mode)[0]


@dataclass
class CheckResult:
    """Outcome of one checker: the slack of every claim it recorded (by ge,
    le, eq and reaches), the claims that failed, or the failed hypothesis
    that makes it not applicable. The verdict, `applicable` and the failure
    witness follow from these. Every claim is decided by an exact integer
    comparison."""

    check_id: str
    slack: dict[str, float] = field(default_factory=dict)
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

    def _record(self, label: str, lhs: float, rhs: float, failed: bool,
                detail: dict | None = None) -> None:
        self.slack[label] = float(lhs) - float(rhs)
        if failed:
            self.violations += ({"claim": label, "lhs": float(lhs), "rhs": float(rhs),
                                 **(detail or {})},)

    def ge(self, label: str, lhs: int, rhs: int, detail: dict | None = None) -> None:
        """Claim lhs >= rhs exactly; slack = lhs - rhs; a failure's entry adds `detail`."""
        self._record(label, lhs, rhs, lhs < rhs, detail)

    def le(self, label: str, lhs: int, rhs: int) -> None:
        """Claim lhs <= rhs exactly; slack = lhs - rhs."""
        self._record(label, lhs, rhs, lhs > rhs)

    def eq(self, label: str, lhs: int, rhs: int) -> None:
        """Claim lhs == rhs exactly; slack = lhs - rhs."""
        self._record(label, lhs, rhs, lhs != rhs)

    def reaches(self, label: str, values: np.ndarray, k: int, c: int, count: int) -> None:
        """Claim values[k] >= c of a nonincreasing spectrum with `count` eigenvalues
        at or above c, so exactly when count > k; slack = values[k] - c."""
        self._record(label, values[k], c, count <= k)


# ---------------------------------------------------------------------------
# individual checkers
# ---------------------------------------------------------------------------

def check_ah_bound(a: GraphAnalysis) -> CheckResult:
    """Spectral radius lower bound dL1 >= n + ceil(n/chi) for incomplete graphs."""
    if a.is_complete:
        return CheckResult("ah_bound", reason="graph is complete")
    r = CheckResult("ah_bound")
    r.reaches("dl1_minus_b_chi", a.values, 0, a.b_chi, a.m_ge_b)
    return r


def check_color_majorization(a: GraphAnalysis) -> CheckResult:
    """Block lower bounds from the color-class sizes of an optimal coloring.

    The first ell_1 - 1 eigenvalues must reach n + ell_1, and for each class of
    size >= 2 the next block of ell_j - 1 eigenvalues must reach n + ell_j.
    """
    r = CheckResult("color_majorization")
    s_prev = 0
    for j, (ell_j, count) in enumerate(zip(a.coloring.sizes, a.block_counts), start=1):
        s_j = s_prev + ell_j - 1  # values[s_prev .. s_j - 1], nonincreasing: least at s_j - 1
        r.reaches(f"block_{j}", a.values, s_j - 1, a.n + ell_j, count)
        s_prev = s_j
    return r


def check_many_above(a: GraphAnalysis) -> CheckResult:
    """Counting bounds around the chromatic threshold b_chi."""
    if a.chi > a.n - 1:
        return CheckResult("many_above_b_chi", reason="chi = n (complete graph)")
    ell1 = a.coloring.sizes[0]
    r = CheckResult("many_above_b_chi")
    r.ge("count_ge_b_minus_ell1m1", a.m_ge_b, ell1 - 1)
    r.ge("count_ge_b_minus_ceilm1", a.m_ge_b, a.ceil_n_chi - 1)
    return r


def check_k_range(a: GraphAnalysis) -> CheckResult:
    """Literal range claim dL_k >= b_chi for 2 <= k <= ceil(n/chi)-1, plus the
    stronger second-eigenvalue sub-check whenever chi <= n-2."""
    if a.n < 4:
        return CheckResult("k_range", reason="n < 4")
    if a.chi > a.n - 1:
        return CheckResult("k_range", reason="chi = n (complete graph)")
    r = CheckResult("k_range")
    hi = a.ceil_n_chi - 1
    if hi >= 2:  # the least of dL_2 .. dL_hi, values[1 .. hi - 1], is the last
        r.reaches("k_range", a.values, hi - 1, a.b_chi, a.m_ge_b)
    if a.chi <= a.n - 2:
        r.reaches("second_eigenvalue", a.values, 1, a.b_chi, a.m_ge_b)
    return r


def check_interval_sandwich(a: GraphAnalysis) -> CheckResult:
    """Sandwich ell_1 - 1 <= m([b_chi, dL1]) <= n - c(complement), the ell_1 >= 4
    special case, and the universal-vertex upper bound for incomplete graphs."""
    ell1 = a.coloring.sizes[0]
    r = CheckResult("interval_sandwich")
    r.ge("count_minus_ell1m1", a.m_ge_b, ell1 - 1)
    if ell1 >= 4:
        r.ge("count_minus_3", a.m_ge_b, 3)
    r.le("count_minus_complement_bound", a.m_ge_b, a.n - a.complement_components)
    if a.chi <= a.n - 1:
        r.le("count_minus_universal_bound", a.m_ge_b, a.n - a.universal_vertices - 1)
    return r


def check_n_multiplicity(a: GraphAnalysis) -> CheckResult:
    """Multiplicity of the eigenvalue n equals c(complement) - 1, exactly."""
    r = CheckResult("n_multiplicity")
    r.eq("mu_at_n_minus_cm1", a.mu_at_n, a.complement_components - 1)
    return r


def _twin_refine(a: GraphAnalysis, kind: str, check_id: str) -> CheckResult:
    """Claims of the `kind` twin classes, keyed twin{i}_* by the class's rank i by
    (forced value, size, |external|): tied classes make equal claims, so no key holds a label."""
    classes = [(t, mult) for t, mult in zip(a.twins, a.twin_mults) if t.kind == kind]
    if not classes:
        return CheckResult(check_id, reason=f"no {kind} twin class")
    classes.sort(key=lambda c: (c[0].forced_value, len(c[0].members), len(c[0].external)))
    r = CheckResult(check_id)
    n = a.n
    for i, (t, mult) in enumerate(classes, start=1):
        members = {"members": list(t.members)}
        s, ext = len(t.members), len(t.external)
        # (a) the forced eigenvalue is realized with multiplicity >= s - 1
        r.ge(f"twin{i}_mult", mult, t.forced_mult, members)
        # (b) compression lower estimate on the forced eigenvalue
        lower = 2 * n - s - ext if kind == "clique" else 2 * n - ext
        r.ge(f"twin{i}_lower", t.forced_value, lower, members)
        # (c) chromatic criterion pushing the class above b_chi
        compression = s + ext if kind == "clique" else ext
        if compression <= n - a.ceil_n_chi:
            r.ge(f"twin{i}_b_chi", t.forced_value, a.b_chi, members)
            r.ge(f"twin{i}_interval_count", a.m_ge_b, s - 1, members)
    return r


def check_clique_refine(a: GraphAnalysis) -> CheckResult:
    """Clique-twin forced eigenvalue Tr+1: realization, lower estimate 2n-s-|N|,
    and the chromatic criterion s+|N| <= n - ceil(n/chi)."""
    return _twin_refine(a, "clique", "clique_twin_refine")


def check_indep_refine(a: GraphAnalysis) -> CheckResult:
    """Independent-twin forced eigenvalue Tr+2: realization, lower estimate 2n-|N|,
    and the chromatic criterion |N| <= n - ceil(n/chi)."""
    return _twin_refine(a, "independent", "indep_twin_refine")


def check_diameter_refine(a: GraphAnalysis) -> CheckResult:
    """Distribution bounds below b_chi, sharpened when the diameter is >= 3;
    also re-asserts the counting identity as a side condition."""
    if a.n < 5:
        return CheckResult("diameter_refine", reason="n < 5")
    if a.chi > a.n - 1:
        return CheckResult("diameter_refine", reason="chi = n (complete graph)")
    r = CheckResult("diameter_refine")
    r.le("mu_below_minus_bound", a.mu_below_b, a.n - a.ceil_n_chi + 1)
    if a.dd.diameter >= 3:
        r.le("mu_below_minus_diam_bound", a.mu_below_b, a.n - max(2, a.ceil_n_chi - 1))
    r.eq("counting_identity", a.mu_below_b + a.m_ge_b, a.n)
    return r


CHECKS: tuple[tuple[str, Callable[[GraphAnalysis], CheckResult]], ...] = (
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


@dataclass
class CheckReport:
    """All checker verdicts for one graph."""

    analysis: GraphAnalysis
    results: list[CheckResult]

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.verdict == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_checks(a: GraphAnalysis) -> CheckReport:
    """Run every registered checker against an existing analysis."""
    return CheckReport(analysis=a, results=[fn(a) for _, fn in CHECKS])


def run_all(g: Graph, coloring_mode: str = "default") -> CheckReport:
    """Analyze a connected graph once and run the full checker registry."""
    return run_checks(analyze(g, coloring_mode=coloring_mode))


BATCH = 512  # graphs per analyze_many call in a sweep


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _sweep_batch(each: Callable, coloring_mode: str, batch: Sequence[Graph]) -> list:
    return [each(run_checks(a)) for a in analyze_many(batch, coloring_mode)]


def sweep(graphs: Sequence[Graph], each: Callable[[CheckReport], object],
          coloring_mode: str = "default", jobs: int = 1) -> Iterator:
    """Yield each(run_checks(a)) for the analysis a of every graph, in order.

    Graphs are analyzed BATCH at a time by min(jobs, usable CPUs) spawned
    workers (serially for one). `each` runs in the worker, so only what it
    returns is sent back; it must pickle, as a module-level function does.
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

    expected = n + math.ceil(n / chi)

    failures: list[str] = []
    findings: list[dict] = []
    if abs(observed - expected) > INT_TOL:
        failures.append(f"min dL1 = {observed!r}, expected {expected}")

    ceil_nc = math.ceil(n / chi)
    floor_nc = n // chi
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


def _slack_json(slack: dict[str, float]) -> str:
    """json.dumps(slack, sort_keys=True). The labels are ASCII names the
    checkers build, which JSON writes unescaped, and float.__repr__ is the
    text JSON writes for a finite float."""
    isfinite, encode = math.isfinite, _ENCODER.encode
    return "{" + ", ".join([f'"{label}": {float.__repr__(v) if isfinite(v) else encode(v)}'
                            for label, v in sorted(slack.items())]) + "}"


@functools.lru_cache(maxsize=256)
def _json_str(text: str) -> str:
    """The JSON text of a check id or a not-applicable reason. There are a few
    dozen of these at most, so each is encoded once per process."""
    return _ENCODER.encode(text)


def report_jsonl(report: CheckReport) -> str:
    """The JSON lines of one graph's records, one per check: each line is
    json.dumps(record, sort_keys=True) of the record holding the graph's
    graph6, n, m, chi and b_chi and the result's check_id, applicable,
    verdict, slack and witness (a not-applicable result's reason, if it has
    no witness).

    The five fields all of a graph's records share are encoded once, and each
    line is assembled around them with its keys in sorted order. The four
    integers are written by str, which is the text JSON writes for an int.
    """
    a = report.analysis
    after_applicable = f', "b_chi": {a.b_chi}, "check_id": '
    after_check_id = (f', "chi": {a.chi}, "graph6": {_ENCODER.encode(a.graph6)}, '
                      f'"m": {a.m}, "n": {a.n}, "slack": ')
    lines = []
    for r in report.results:
        verdict = r.verdict  # one of three plain words
        if verdict == "fail":
            witness = _ENCODER.encode(r.witness)
        else:
            witness = "null" if r.reason is None else _json_str(r.reason)
        lines.append(
            f'{{"applicable": {"true" if r.applicable else "false"}{after_applicable}'
            f'{_json_str(r.check_id)}{after_check_id}{_slack_json(r.slack)}, '
            f'"verdict": "{verdict}", "witness": {witness}}}\n')
    return "".join(lines)


def report_csv(report: CheckReport) -> str:
    """The CSV rows of one graph's records, one per check, in RECORD_FIELDS
    order and without the header (CSV_HEADER). Slack and a failure witness
    are JSON cells; a not-applicable result's witness cell is its reason."""
    a = report.analysis
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        (a.graph6, a.n, a.m, a.chi, a.b_chi, r.check_id, r.applicable, r.verdict,
         _slack_json(r.slack), r.reason if r.witness is None else _ENCODER.encode(r.witness))
        for r in report.results)
    return buf.getvalue()
