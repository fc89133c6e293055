import json
import math
import random

import pytest

from distlap import coloring, verify
from distlap.coloring import max_ell1_coloring
from distlap.graphs import (
    gen_comp_s62,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_g_clq,
    gen_g_ind,
    gen_path,
    parse_graph6,
)
from distlap.verify import (
    CHECKS,
    CheckResult,
    analyze,
    audit_extremal,
    check_ah_bound,
    check_clique_refine,
    check_color_majorization,
    check_diameter_refine,
    check_indep_refine,
    check_interval_sandwich,
    check_k_range,
    check_many_above,
    check_n_multiplicity,
    records_to_csv,
    records_to_jsonl,
    report_records,
    run_all,
    run_checks,
)


def _by_id(report, check_id):
    return next(r for r in report.results if r.check_id == check_id)


# ---------------------------------------------------------------------------
# individual checkers on the worked examples
# ---------------------------------------------------------------------------

def test_ah_bound():
    a = analyze(gen_complete_multipartite([2, 2, 1, 1, 1]))
    r = check_ah_bound(a)
    assert r.verdict == "pass"
    assert abs(r.slack["dl1_minus_b_chi"]) < 1e-9  # tight: dL1 = b_chi = 9

    r = check_ah_bound(analyze(gen_complete(5)))
    assert r.verdict == "not-applicable" and not r.applicable and r.reason

    r = check_ah_bound(analyze(gen_path(8)))
    assert r.verdict == "pass"
    assert abs(r.slack["dl1_minus_b_chi"] - 26.446) < 5e-4  # 38.446 - 12


def test_color_majorization():
    a = analyze(gen_complete_multipartite([4, 4, 2]))
    r = check_color_majorization(a)
    assert r.verdict == "pass"
    # blocks: indices 1..3 and 4..6 need 14, index 7 needs 12
    assert abs(r.slack["block_1"]) < 1e-9
    assert abs(r.slack["block_2"]) < 1e-9
    assert abs(r.slack["block_3"]) < 1e-9

    r = check_color_majorization(analyze(gen_complete(6)))
    assert r.verdict == "pass" and r.slack == {}  # vacuous: every class is a singleton

    r = check_color_majorization(analyze(gen_path(8)))
    assert r.verdict == "pass"
    assert r.slack["top_block"] >= -1e-9  # dL_1..3 >= 12


def test_many_above():
    a = analyze(gen_complete_multipartite([2, 2, 1, 1, 1]))
    r = check_many_above(a)
    assert r.verdict == "pass"
    assert r.slack["count_ge_b_minus_ell1m1"] == 1.0  # 2 >= 1

    r = check_many_above(analyze(gen_g_ind()))
    assert r.verdict == "pass"
    assert r.slack["count_ge_b_minus_ceilm1"] == 4 - (math.ceil(7 / 3) - 1)

    r = check_many_above(analyze(gen_cycle(10)))
    assert r.verdict == "pass"
    assert r.slack["count_ge_b_minus_ceilm1"] == 9 - 4

    r = check_many_above(analyze(gen_complete(4)))
    assert r.verdict == "not-applicable"


def test_k_range():
    r = check_k_range(analyze(gen_path(8)))
    assert r.verdict == "pass"
    assert "k_range" in r.slack  # range {2,3} is non-empty
    assert "second_eigenvalue" in r.slack

    r = check_k_range(analyze(gen_complete_multipartite([3, 5])))
    assert r.verdict == "pass"
    assert r.slack["k_range"] >= 1.0 - 1e-9  # dL_2 = dL_3 = 13 vs b = 12

    a = analyze(gen_complete_multipartite([2, 2, 1, 1, 1]))
    r = check_k_range(a)
    assert r.verdict == "pass"
    assert "k_range" not in r.slack          # ceil(7/5) = 2: empty literal range
    assert abs(r.slack["second_eigenvalue"]) < 1e-9  # chi = 5 <= n-2: dL_2 = 9 = b

    r = check_k_range(analyze(gen_path(3)))
    assert r.verdict == "not-applicable"  # n < 4


def test_interval_sandwich():
    a = analyze(gen_complete_multipartite([4, 4, 2]))
    r = check_interval_sandwich(a)
    assert r.verdict == "pass"
    assert r.slack["count_minus_ell1m1"] == 6 - 3
    assert r.slack["count_minus_complement_bound"] == 6 - 7
    assert r.slack["count_minus_3"] == 3.0

    r = check_interval_sandwich(analyze(gen_complete(5)))
    assert r.verdict == "pass"  # m = 0 <= n - c = 0: consistency for K_n
    assert r.slack["count_minus_complement_bound"] == 0.0
    assert "count_minus_universal_bound" not in r.slack

    a8 = analyze(gen_path(8))
    r = check_interval_sandwich(a8)
    assert r.verdict == "pass"
    assert r.slack["count_minus_complement_bound"] == 0.0  # tight: m = 7 = n - 1


def test_n_multiplicity():
    r = check_n_multiplicity(analyze(gen_complete_multipartite([3, 5])))
    assert r.verdict == "pass" and r.slack["mu_at_n_minus_cm1"] == 0.0

    r = check_n_multiplicity(analyze(gen_complete_multipartite([2, 2, 1, 1, 1])))
    assert r.verdict == "pass"  # mu_at(7) = 4 = c - 1

    r = check_n_multiplicity(analyze(gen_path(8)))
    assert r.verdict == "pass"  # c = 1, no eigenvalue at 8


def test_clique_refine():
    a = analyze(gen_g_clq())
    r = check_clique_refine(a)
    assert r.verdict == "pass"
    # maximal class {0,1,2,4}: forced 14 >= 2n-s-|N| = 11, slack 3
    assert r.slack["class0_lower"] == 3.0
    assert r.slack["class0_b_chi"] == 4.0     # 14 >= b_chi = 10
    assert r.slack["class0_interval_count"] >= 0

    r = check_clique_refine(analyze(gen_path(4)))
    assert r.verdict == "not-applicable"

    a = analyze(gen_complete(6))
    r = check_clique_refine(a)
    assert r.verdict == "pass"
    assert r.slack["class0_lower"] == 0.0  # lambda_H = n = 2n - s - 0 exactly
    assert r.slack["class0_mult"] == 0.0   # multiplicity exactly n - 1


def test_indep_refine():
    a = analyze(gen_g_ind())
    r = check_indep_refine(a)
    assert r.verdict == "pass"
    assert r.slack["class2_lower"] == 0.0  # 12 = 2n - |N| = 12: tight
    assert r.slack["class2_b_chi"] == 2.0  # 12 >= 10
    assert r.slack["class2_interval_count"] == 4 - 3

    a = analyze(gen_complete_multipartite([3, 5]))
    r = check_indep_refine(a)
    assert r.verdict == "pass"
    # the part of size 5 forces 13 with multiplicity 4
    assert r.slack["class0_mult"] == 0.0

    r = check_indep_refine(analyze(gen_path(3)))
    assert r.verdict == "pass"
    assert r.slack["class0_lower"] == 0.0  # 5 = 2*3 - 1


def test_diameter_refine():
    a = analyze(gen_comp_s62())
    r = check_diameter_refine(a)
    assert r.verdict == "pass"
    assert r.slack["mu_below_minus_diam_bound"] == 0.0  # 6 = 8 - max(2,1): tight

    a = analyze(gen_cycle(10))
    r = check_diameter_refine(a)
    assert r.verdict == "pass"
    assert r.slack["mu_below_minus_diam_bound"] == 1 - 6

    a = analyze(gen_complete_multipartite([3, 3, 3, 2]))
    r = check_diameter_refine(a)
    assert r.verdict == "pass"
    assert "mu_below_minus_diam_bound" not in r.slack  # diameter 2
    assert r.slack["mu_below_minus_bound"] == 5 - 9

    r = check_diameter_refine(analyze(gen_path(4)))
    assert r.verdict == "not-applicable"  # n < 5


def test_check_result_invariants():
    with pytest.raises(ValueError):
        CheckResult("x", True, "fail")  # fail without witness
    with pytest.raises(ValueError):
        CheckResult("x", False, "not-applicable")  # n/a without reason
    with pytest.raises(ValueError):
        CheckResult("x", True, "maybe")


# ---------------------------------------------------------------------------
# run_all and reports
# ---------------------------------------------------------------------------

def test_run_all_k22111_all_pass():
    report = run_all(gen_complete_multipartite([2, 2, 1, 1, 1]))
    assert report.ok
    assert [r.check_id for r in report.results] == [cid for cid, _ in CHECKS]


def test_run_all_k5_na_pattern():
    report = run_all(gen_complete(5))
    verdicts = {r.check_id: r.verdict for r in report.results}
    assert verdicts["ah_bound"] == "not-applicable"
    assert verdicts["many_above_b_chi"] == "not-applicable"
    assert report.ok


def test_run_all_rejects_disconnected():
    from distlap.graphs import delete_edge
    with pytest.raises(ValueError):
        run_all(delete_edge(gen_path(3), 0, 1))


def test_run_all_max_ell1_mode():
    report = run_all(gen_path(7), coloring_mode="max-l1")
    assert report.ok
    assert report.analysis.coloring == max_ell1_coloring(gen_path(7))
    assert report.analysis.coloring.sizes[0] == 4


def test_max_ell1_mode_finds_chi_once(monkeypatch):
    calls = []
    real = coloring._chromatic

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(coloring, "_chromatic", counting)
    analyze(gen_path(8), coloring_mode="max-l1")
    assert len(calls) == 1


def test_max_ell1_mode_guard_precedes_optimal_coloring(monkeypatch):
    def refuse(g):
        raise AssertionError("optimal_coloring must not run in max-l1 mode")

    monkeypatch.setattr(verify, "optimal_coloring", refuse)
    with pytest.raises(ValueError, match="n <= 16"):
        analyze(gen_path(17), coloring_mode="max-l1")


def test_counting_identity_on_corpus(corpus_analyses):
    for n, analyses in corpus_analyses.items():
        for a in analyses:
            assert a.mu_below_b + a.m_ge_b == n


def test_checkers_monotone_in_int_tol(corpus_analyses):
    rng = random.Random(31)
    sample = rng.sample(corpus_analyses[6], 25) + rng.sample(corpus_analyses[7], 25)
    for a in sample:
        verdicts = []
        for tol in (1e-6, 1e-5, 1e-4):
            loose = analyze(a.graph, int_tol=tol)
            verdicts.append({r.check_id: r.verdict for r in run_checks(loose).results})
        for tighter, looser in zip(verdicts, verdicts[1:]):
            for cid, v in tighter.items():
                if v == "pass":
                    assert looser[cid] != "fail"


def test_report_records_roundtrip():
    report = run_all(gen_g_clq())
    records = report_records(report)
    assert len(records) == len(CHECKS)
    jsonl = records_to_jsonl(records)
    parsed = [json.loads(line) for line in jsonl.splitlines()]
    assert parsed == json.loads(json.dumps(records))
    for rec in parsed:
        assert set(rec) == {"graph6", "n", "m", "chi", "b_chi", "check_id",
                            "applicable", "verdict", "slack", "witness"}
    # re-ingesting the graph6 field reproduces identical verdicts
    again = report_records(run_all(parse_graph6(records[0]["graph6"])))
    assert [(r["check_id"], r["verdict"]) for r in again] == \
           [(r["check_id"], r["verdict"]) for r in records]

    csv_text = records_to_csv(records)
    assert csv_text.splitlines()[0] == "graph6,n,m,chi,b_chi,check_id,applicable,verdict,slack,witness"
    assert len(csv_text.splitlines()) == len(CHECKS) + 1


# ---------------------------------------------------------------------------
# extremal audit
# ---------------------------------------------------------------------------

def test_audit_extremal_n7_chi5(corpus_analyses):
    audit = audit_extremal(7, 5, analyses=corpus_analyses[7])
    assert audit.ok
    assert abs(audit.observed_min - 9.0) < 1e-9 and audit.expected_min == 9
    from distlap.graphs import canonical_form, to_graph6
    mins = {m for m in audit.minimizers}
    k22111 = to_graph6(parse_graph6(canonical_form(
        gen_complete_multipartite([2, 2, 1, 1, 1])).decode()))
    assert k22111 in mins


def test_audit_extremal_n7_chi3_has_findings(corpus_analyses):
    audit = audit_extremal(7, 3, analyses=corpus_analyses[7])
    assert audit.ok
    assert abs(audit.observed_min - 10.0) < 1e-9
    assert sorted(p for p in audit.minimizer_parts) == [(3, 2, 2), (3, 3, 1)]
    assert audit.findings  # the (3,3,1) minimizer breaks the balanced-parts clause
    assert audit.findings[0]["parts"] == [3, 3, 1]


def test_audit_extremal_large_chi_unique_minimizer(corpus_analyses):
    # for chi >= n/2 the minimizer is complete multipartite with parts of
    # size 2 and 1 only, and unique
    for chi in (4, 5, 6):
        audit = audit_extremal(7, chi, analyses=corpus_analyses[7])
        assert audit.ok
        assert len(audit.minimizers) == 1
        parts = audit.minimizer_parts[0]
        assert parts is not None
        assert parts.count(2) == 7 - chi
        assert parts.count(1) == 2 * chi - 7


def test_audit_extremal_summaries_match_analyses(corpus_analyses):
    summaries = [a.summary for a in corpus_analyses[7]]
    for chi in range(2, 7):
        assert audit_extremal(7, chi, analyses=summaries) == \
            audit_extremal(7, chi, analyses=corpus_analyses[7])


def test_audit_extremal_missing_chi(corpus_analyses):
    with pytest.raises(ValueError):
        audit_extremal(3, 5, analyses=corpus_analyses[3])
