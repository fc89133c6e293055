"""Checkers for every spectral bound, multiplicity, and distribution claim.

Each checker consumes an immutable GraphAnalysis and returns a CheckResult with
named slack values (always lhs - rhs in the inequality's stated orientation, so
slack 0 marks a tight bound). Hypothesis failures yield a not-applicable
verdict rather than a vacuous pass, keeping the gating visible in reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from distlap.coloring import ColoringResult, max_ell1_coloring, optimal_coloring
from distlap.eigen import DEFAULT_INT_TOL, count_in_interval, eig_symmetric, mu_at, mu_below
from distlap.graphs import Graph, is_complete_multipartite, parse_graph6, to_graph6
from distlap.metric import DistanceData, apsp, distance_laplacian
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

    `values` is the DL spectrum, nonincreasing; `coloring` is the one optimal
    coloring every chi- and ell-parameterized check reads.
    """

    graph: Graph
    graph6: str
    dd: DistanceData
    dl: np.ndarray
    values: np.ndarray
    coloring: ColoringResult
    twins: tuple[TwinClass, ...]
    complement_components: int
    universal_vertices: int
    int_tol: float

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def chi(self) -> int:
        return self.coloring.chi

    @property
    def b_chi(self) -> int:
        return self.coloring.b_chi

    @property
    def ceil_n_chi(self) -> int:
        return math.ceil(self.n / self.chi)

    @property
    def dl1(self) -> float:
        return float(self.values[0])

    @property
    def summary(self) -> GraphSummary:
        return GraphSummary(self.graph6, self.n, self.chi, self.dl1)

    @property
    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    @property
    def mu_below_b(self) -> int:
        return mu_below(self.values, self.b_chi, self.int_tol)

    @property
    def m_ge_b(self) -> int:
        return count_in_interval(self.values, self.b_chi, self.dl1, self.int_tol)


def analyze(g: Graph, int_tol: float = DEFAULT_INT_TOL,
            coloring_mode: str = "default") -> GraphAnalysis:
    """Build the shared analysis record for a connected graph.

    coloring_mode "max-l1" uses an optimal coloring with the largest possible
    first class (guarded to n <= 16) instead of the default optimal coloring.
    A disconnected graph raises ValueError (from apsp).
    """
    if coloring_mode not in ("default", "max-l1"):
        raise ValueError(f"unknown coloring mode {coloring_mode!r}")
    dd = apsp(g)
    dl = distance_laplacian(dd)
    return GraphAnalysis(
        graph=g,
        graph6=to_graph6(g),
        dd=dd,
        dl=dl,
        values=eig_symmetric(dl),
        coloring=max_ell1_coloring(g) if coloring_mode == "max-l1" else optimal_coloring(g),
        twins=tuple(twin_classes(g, dd)),
        complement_components=complement_component_count(g),
        universal_vertices=universal_vertex_count(g),
        int_tol=int_tol,
    )


@dataclass
class CheckResult:
    """Outcome of one checker with named slacks and an optional failure witness."""

    check_id: str
    applicable: bool
    verdict: str  # "pass" | "fail" | "not-applicable"
    slack: dict[str, float] = field(default_factory=dict)
    witness: dict | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "not-applicable"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise ValueError("failing checks must carry a witness")
        if self.verdict == "not-applicable" and not self.reason:
            raise ValueError("not-applicable checks must name the failed hypothesis")


class _Claims:
    """Accumulates named slack values and failure witnesses for one checker."""

    def __init__(self, int_tol: float):
        self.int_tol = int_tol
        self.slack: dict[str, float] = {}
        self.failures: list[dict] = []

    def ge(self, label: str, lhs: float, rhs: float, exact: bool = False) -> None:
        """Assert lhs >= rhs (numeric unless exact); slack = lhs - rhs."""
        self.slack[label] = float(lhs) - float(rhs)
        tol = 0.0 if exact else self.int_tol
        if lhs < rhs - tol:
            self.failures.append({"claim": label, "lhs": float(lhs), "rhs": float(rhs)})

    def le(self, label: str, lhs: float, rhs: float) -> None:
        """Assert lhs <= rhs exactly (integer counts); slack = lhs - rhs."""
        self.slack[label] = float(lhs) - float(rhs)
        if lhs > rhs:
            self.failures.append({"claim": label, "lhs": float(lhs), "rhs": float(rhs)})

    def eq(self, label: str, lhs: float, rhs: float) -> None:
        self.slack[label] = float(lhs) - float(rhs)
        if lhs != rhs:
            self.failures.append({"claim": label, "lhs": float(lhs), "rhs": float(rhs)})

    def result(self, check_id: str) -> CheckResult:
        if self.failures:
            return CheckResult(check_id, True, "fail", self.slack,
                               witness={"violations": self.failures})
        return CheckResult(check_id, True, "pass", self.slack)


def _na(check_id: str, reason: str) -> CheckResult:
    return CheckResult(check_id, False, "not-applicable", reason=reason)


# ---------------------------------------------------------------------------
# individual checkers
# ---------------------------------------------------------------------------

def check_ah_bound(a: GraphAnalysis) -> CheckResult:
    """Spectral radius lower bound dL1 >= n + ceil(n/chi) for incomplete graphs."""
    if a.is_complete:
        return _na("ah_bound", "graph is complete")
    c = _Claims(a.int_tol)
    c.ge("dl1_minus_b_chi", a.dl1, a.b_chi)
    return c.result("ah_bound")


def check_color_majorization(a: GraphAnalysis) -> CheckResult:
    """Block lower bounds from the color-class sizes of an optimal coloring.

    The first ell_1 - 1 eigenvalues must reach n + ell_1, and for each class of
    size >= 2 the next block of ell_j - 1 eigenvalues must reach n + ell_j.
    """
    ell = a.coloring.sizes
    c = _Claims(a.int_tol)
    n = a.n
    if ell[0] >= 2:
        top = min(float(a.values[i]) for i in range(ell[0] - 1))
        c.ge("top_block", top, n + ell[0])
    s_prev = 0
    for j, ell_j in enumerate(ell, start=1):
        if ell_j < 2:
            break
        s_j = s_prev + ell_j - 1
        block_min = min(float(a.values[i - 1]) for i in range(s_prev + 1, s_j + 1))
        c.ge(f"block_{j}", block_min, n + ell_j)
        s_prev = s_j
    return c.result("color_majorization")


def check_many_above(a: GraphAnalysis) -> CheckResult:
    """Counting bounds around the chromatic threshold b_chi."""
    if a.chi > a.n - 1:
        return _na("many_above_b_chi", "chi = n (complete graph)")
    ell1 = a.coloring.sizes[0]
    c = _Claims(a.int_tol)
    c.ge("count_ge_b_minus_ell1m1", a.m_ge_b, ell1 - 1, exact=True)
    c.ge("count_ge_b_minus_ceilm1", a.m_ge_b, a.ceil_n_chi - 1, exact=True)
    c.le("mu_below_minus_bound", a.mu_below_b, a.n - a.ceil_n_chi + 1)
    return c.result("many_above_b_chi")


def check_k_range(a: GraphAnalysis) -> CheckResult:
    """Literal range claim dL_k >= b_chi for 2 <= k <= ceil(n/chi)-1, plus the
    stronger second-eigenvalue sub-check whenever chi <= n-2."""
    if a.n < 4:
        return _na("k_range", "n < 4")
    if a.chi > a.n - 1:
        return _na("k_range", "chi = n (complete graph)")
    c = _Claims(a.int_tol)
    hi = a.ceil_n_chi - 1
    if hi >= 2:
        worst = min(float(a.values[k - 1]) for k in range(2, hi + 1))
        c.ge("k_range", worst, a.b_chi)
    if a.chi <= a.n - 2:
        c.ge("second_eigenvalue", float(a.values[1]), a.b_chi)
    return c.result("k_range")


def check_interval_sandwich(a: GraphAnalysis) -> CheckResult:
    """Sandwich ell_1 - 1 <= m([b_chi, dL1]) <= n - c(complement), the ell_1 >= 4
    special case, and the universal-vertex upper bound for incomplete graphs."""
    ell1 = a.coloring.sizes[0]
    c = _Claims(a.int_tol)
    c.ge("count_minus_ell1m1", a.m_ge_b, ell1 - 1, exact=True)
    if ell1 >= 4:
        c.ge("count_minus_3", a.m_ge_b, 3, exact=True)
    c.le("count_minus_complement_bound", a.m_ge_b, a.n - a.complement_components)
    if a.chi <= a.n - 1:
        c.le("count_minus_universal_bound", a.m_ge_b, a.n - a.universal_vertices - 1)
    return c.result("interval_sandwich")


def check_n_multiplicity(a: GraphAnalysis) -> CheckResult:
    """Multiplicity of the eigenvalue n equals c(complement) - 1, exactly."""
    c = _Claims(a.int_tol)
    c.eq("mu_at_n_minus_cm1", mu_at(a.values, a.n, a.int_tol), a.complement_components - 1)
    return c.result("n_multiplicity")


def _twin_refine(a: GraphAnalysis, kind: str, check_id: str) -> CheckResult:
    classes = [t for t in a.twins if t.kind == kind]
    if not classes:
        return _na(check_id, f"no {kind} twin class")
    c = _Claims(a.int_tol)
    n = a.n
    for t in classes:
        tag = f"class{t.members[0]}"
        s, ext = len(t.members), len(t.external)
        # (a) the forced eigenvalue is realized with multiplicity >= s - 1
        c.ge(f"{tag}_mult", mu_at(a.values, t.forced_value, a.int_tol), t.forced_mult,
             exact=True)
        # (b) compression lower estimate on the forced eigenvalue
        lower = 2 * n - s - ext if kind == "clique" else 2 * n - ext
        c.ge(f"{tag}_lower", t.forced_value, lower, exact=True)
        # (c) chromatic criterion pushing the class above b_chi
        compression = s + ext if kind == "clique" else ext
        if compression <= n - a.ceil_n_chi:
            c.ge(f"{tag}_b_chi", t.forced_value, a.b_chi, exact=True)
            c.ge(f"{tag}_interval_count", a.m_ge_b, s - 1, exact=True)
    return c.result(check_id)


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
        return _na("diameter_refine", "n < 5")
    if a.chi > a.n - 1:
        return _na("diameter_refine", "chi = n (complete graph)")
    c = _Claims(a.int_tol)
    c.le("mu_below_minus_bound", a.mu_below_b, a.n - a.ceil_n_chi + 1)
    if a.dd.diameter >= 3:
        c.le("mu_below_minus_diam_bound", a.mu_below_b, a.n - max(2, a.ceil_n_chi - 1))
    c.eq("counting_identity", a.mu_below_b + a.m_ge_b, a.n)
    return c.result("diameter_refine")


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


def run_all(g: Graph, int_tol: float = DEFAULT_INT_TOL,
            coloring_mode: str = "default") -> CheckReport:
    """Analyze a connected graph once and run the full checker registry."""
    return run_checks(analyze(g, int_tol=int_tol, coloring_mode=coloring_mode))


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


def audit_extremal(n: int, chi: int, analyses: Iterable[GraphAnalysis | GraphSummary],
                   int_tol: float = DEFAULT_INT_TOL) -> ExtremalAudit:
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
            minimizers = [m for m in minimizers if m.dl1 <= observed + int_tol]
        if a.dl1 <= observed + int_tol:
            minimizers.append(a)
    if not considered:
        raise ValueError(f"corpus has no connected graph with n={n}, chi={chi}")

    expected = n + math.ceil(n / chi)

    failures: list[str] = []
    findings: list[dict] = []
    if abs(observed - expected) > int_tol:
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


def report_records(report: CheckReport) -> list[dict]:
    """One serializable record per (graph, check)."""
    a = report.analysis
    out = []
    for r in report.results:
        out.append({
            "graph6": a.graph6,
            "n": a.n,
            "m": a.m,
            "chi": a.chi,
            "b_chi": a.b_chi,
            "check_id": r.check_id,
            "applicable": r.applicable,
            "verdict": r.verdict,
            "slack": r.slack,
            "witness": r.witness if r.witness is not None else r.reason,
        })
    return out


def records_to_jsonl(records: Iterable[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def records_to_csv(records: Iterable[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        row = dict(rec)
        row["slack"] = json.dumps(row.get("slack"), sort_keys=True)
        witness = row.get("witness")
        if isinstance(witness, (dict, list)):
            witness = json.dumps(witness, sort_keys=True)
        row["witness"] = witness
        writer.writerow(row)
    return buf.getvalue()
