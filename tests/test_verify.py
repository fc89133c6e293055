import csv
import hashlib
import io
import json
import math
import random

import numpy as np
import pytest

from distlap import cli, coloring, verify
from distlap.coloring import max_ell1_colors
from distlap.eigen import INT_TOL, counts_at_least
from distlap.graphs import (
    Graph,
    complement,
    enumerate_connected,
    gen_comp_s62,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_g_clq,
    gen_g_ind,
    gen_path,
    parse_graph6,
    relabel,
    to_graph6,
)
from distlap.metric import distance_laplacian, distance_stack
from distlap.twins import KINDS, complement_component_count, complement_component_counts
from distlap.verify import (
    CHECKS,
    CSV_HEADER,
    RECORD_FIELDS,
    CheckResult,
    GraphAnalysis,
    Head,
    StackReports,
    analyze,
    analyze_many,
    audit_extremal,
    report_csv,
    report_jsonl,
    run_checks,
    run_checks_many,
    sweep,
)
from helpers import (
    analyzed_as,
    assert_columns_match_analyze,
    assert_table_matches_run_checks,
    classes_of,
    random_permutation,
    report_of,
    stack_of,
    swept_reports,
    toggle_edge,
    universal_vertex_count,
)


def _by_id(report, check_id):
    return next(r for r in report.results if r.check_id == check_id)


# ---------------------------------------------------------------------------
# individual checkers on the worked examples
# ---------------------------------------------------------------------------

def test_ah_bound():
    a = analyze(gen_complete_multipartite([2, 2, 1, 1, 1]))
    r = _by_id(run_checks(a), "ah_bound")
    assert r.verdict == "pass"
    assert abs(r.slack["dl1_minus_b_chi"]) < 1e-9  # tight: dL1 = b_chi = 9

    r = _by_id(run_checks(analyze(gen_complete(5))), "ah_bound")
    assert r.verdict == "not-applicable" and not r.applicable and r.reason

    r = _by_id(run_checks(analyze(gen_path(8))), "ah_bound")
    assert r.verdict == "pass"
    assert abs(r.slack["dl1_minus_b_chi"] - 26.446) < 5e-4  # 38.446 - 12


def test_color_majorization():
    a = analyze(gen_complete_multipartite([4, 4, 2]))
    r = _by_id(run_checks(a), "color_majorization")
    assert r.verdict == "pass"
    # blocks: indices 1..3 and 4..6 need 14, index 7 needs 12
    assert abs(r.slack["block_1"]) < 1e-9
    assert abs(r.slack["block_2"]) < 1e-9
    assert abs(r.slack["block_3"]) < 1e-9

    r = _by_id(run_checks(analyze(gen_complete(6))), "color_majorization")
    assert r.verdict == "pass" and r.slack == {}  # vacuous: every class is a singleton

    r = _by_id(run_checks(analyze(gen_path(8))), "color_majorization")
    assert r.verdict == "pass"
    assert r.slack["block_1"] >= -1e-9  # dL_1..3 >= 12


def test_block_minima_match_their_definition(mode_analyses):
    # the checkers read a block's minimum at one index; here each is the
    # minimum over its whole block, so a shifted index shows as a mismatch
    _, corpus = mode_analyses
    shown = set()
    for analyses in corpus.values():
        for a in analyses:
            vals, n, ell = [float(v) for v in a.values], a.n, a.sizes
            want = {}
            start = 0
            for j, ell_j in enumerate(ell, start=1):
                if ell_j < 2:
                    break
                want[f"block_{j}"] = min(vals[start:start + ell_j - 1]) - (n + ell_j)
                start += ell_j - 1
            got = _by_id(run_checks(a), "color_majorization").slack
            assert got == want, a.graph6
            hi = math.ceil(n / a.chi) - 1
            k_range = _by_id(run_checks(a), "k_range").slack.get("k_range")
            if n >= 4 and a.chi <= n - 1 and hi >= 2:
                assert k_range == min(vals[1:hi]) - a.b_chi, a.graph6
                shown.add("k_range")
            else:
                assert k_range is None
            shown.update(got)
    assert {"block_1", "block_2", "block_3", "k_range"} <= shown


def test_many_above():
    a = analyze(gen_complete_multipartite([2, 2, 1, 1, 1]))
    r = _by_id(run_checks(a), "many_above_b_chi")
    assert r.verdict == "pass"
    assert r.slack["count_ge_b_minus_ell1m1"] == 1.0  # 2 >= 1

    r = _by_id(run_checks(analyze(gen_g_ind())), "many_above_b_chi")
    assert r.verdict == "pass"
    assert r.slack["count_ge_b_minus_ceilm1"] == 4 - (math.ceil(7 / 3) - 1)

    r = _by_id(run_checks(analyze(gen_cycle(10))), "many_above_b_chi")
    assert r.verdict == "pass"
    assert r.slack["count_ge_b_minus_ceilm1"] == 9 - 4

    r = _by_id(run_checks(analyze(gen_complete(4))), "many_above_b_chi")
    assert r.verdict == "not-applicable"


def test_k_range():
    r = _by_id(run_checks(analyze(gen_path(8))), "k_range")
    assert r.verdict == "pass"
    assert "k_range" in r.slack  # range {2,3} is non-empty
    assert "second_eigenvalue" in r.slack

    r = _by_id(run_checks(analyze(gen_complete_multipartite([3, 5]))), "k_range")
    assert r.verdict == "pass"
    assert r.slack["k_range"] >= 1.0 - 1e-9  # dL_2 = dL_3 = 13 vs b = 12

    a = analyze(gen_complete_multipartite([2, 2, 1, 1, 1]))
    r = _by_id(run_checks(a), "k_range")
    assert r.verdict == "pass"
    assert "k_range" not in r.slack          # ceil(7/5) = 2: empty literal range
    assert abs(r.slack["second_eigenvalue"]) < 1e-9  # chi = 5 <= n-2: dL_2 = 9 = b

    r = _by_id(run_checks(analyze(gen_path(3))), "k_range")
    assert r.verdict == "not-applicable"  # n < 4


def test_interval_sandwich():
    a = analyze(gen_complete_multipartite([4, 4, 2]))
    r = _by_id(run_checks(a), "interval_sandwich")
    assert r.verdict == "pass"
    assert r.slack["count_minus_ell1m1"] == 6 - 3
    assert r.slack["count_minus_complement_bound"] == 6 - 7
    assert r.slack["count_minus_3"] == 3.0

    r = _by_id(run_checks(analyze(gen_complete(5))), "interval_sandwich")
    assert r.verdict == "pass"  # m = 0 <= n - c = 0: consistency for K_n
    assert r.slack["count_minus_complement_bound"] == 0.0
    assert "count_minus_universal_bound" not in r.slack

    a8 = analyze(gen_path(8))
    r = _by_id(run_checks(a8), "interval_sandwich")
    assert r.verdict == "pass"
    assert r.slack["count_minus_complement_bound"] == 0.0  # tight: m = 7 = n - 1


def test_n_multiplicity():
    r = _by_id(run_checks(analyze(gen_complete_multipartite([3, 5]))), "n_multiplicity")
    assert r.verdict == "pass" and r.slack["mu_at_n_minus_cm1"] == 0.0

    r = _by_id(run_checks(analyze(gen_complete_multipartite([2, 2, 1, 1, 1]))), "n_multiplicity")
    assert r.verdict == "pass"  # mu_at(7) = 4 = c - 1

    r = _by_id(run_checks(analyze(gen_path(8))), "n_multiplicity")
    assert r.verdict == "pass"  # c = 1, no eigenvalue at 8


def test_clique_refine():
    a = analyze(gen_g_clq())
    r = _by_id(run_checks(a), "clique_twin_refine")
    assert r.verdict == "pass"
    # maximal class {0,1,2,4}: forced 14 >= 2n-s-|N| = 11, slack 3
    assert r.slack["twin1_lower"] == 3.0
    assert r.slack["twin1_b_chi"] == 4.0     # 14 >= b_chi = 10
    assert r.slack["twin1_interval_count"] >= 0

    r = _by_id(run_checks(analyze(gen_path(4))), "clique_twin_refine")
    assert r.verdict == "not-applicable"

    a = analyze(gen_complete(6))
    r = _by_id(run_checks(a), "clique_twin_refine")
    assert r.verdict == "pass"
    assert r.slack["twin1_lower"] == 0.0  # lambda_H = n = 2n - s - 0 exactly
    assert r.slack["twin1_mult"] == 0.0   # multiplicity exactly n - 1


def test_indep_refine():
    a = analyze(gen_g_ind())
    r = _by_id(run_checks(a), "indep_twin_refine")
    assert r.verdict == "pass"
    assert r.slack["twin1_lower"] == 0.0  # 12 = 2n - |N| = 12: tight
    assert r.slack["twin1_b_chi"] == 2.0  # 12 >= 10
    assert r.slack["twin1_interval_count"] == 4 - 3

    a = analyze(gen_complete_multipartite([3, 5]))
    r = _by_id(run_checks(a), "indep_twin_refine")
    assert r.verdict == "pass"
    # the part of size 5 forces 13 with multiplicity 4; the part of size 3
    # forces 11, so it ranks first
    assert r.slack["twin2_mult"] == 0.0

    r = _by_id(run_checks(analyze(gen_path(3))), "indep_twin_refine")
    assert r.verdict == "pass"
    assert r.slack["twin1_lower"] == 0.0  # 5 = 2*3 - 1


def test_failing_twin_claim_names_the_class_members():
    a = analyze(gen_complete_multipartite([3, 5]))
    assert [t.members for t in a.twins] == [(0, 1, 2, 3, 4), (5, 6, 7)]
    # the part of size 5 (forced 13, rank 2) one eigenvalue short of its s - 1 = 4
    r = _by_id(run_checks(a._replace(twin_mults=(3, a.twin_mults[1]))), "indep_twin_refine")
    assert r.verdict == "fail" and r.slack["twin2_mult"] == -1.0
    assert r.witness == {"violations": [
        {"claim": "twin2_mult", "lhs": 3.0, "rhs": 4.0, "members": [0, 1, 2, 3, 4]}]}


def test_twin_records_do_not_depend_on_vertex_labels(mode_reports, mode_corpus_analyses):
    # Against a seeded relabeling of every corpus graph, swept as the corpus
    # is, the twin checks give equal slack, verdict and witness, and every
    # check records the same keys wherever the two colorings have the same
    # size vector (the session's analyses of the corpus, whose sizes are its
    # sweep's, and the sizes columns of the relabeled side's stacks).
    # Whole records may differ: float slacks move by an ulp, and in either
    # mode the coloring's size vector can depend on the labels.
    coloring_mode, corpus = mode_reports
    rng = random.Random(7)
    for n, reports in corpus.items():
        graphs = list(enumerate_connected(n))
        moved = [relabel(g, random_permutation(rng, n)) for g in graphs]
        sizes = [[*a.sizes, *[0] * (n - a.chi)] for a in mode_corpus_analyses[coloring_mode, n]]
        same_sizes = (np.array(sizes) == np.concatenate([
            analyze_many(moved[i:i + verify.BATCH], coloring_mode).sizes
            for i in range(0, len(moved), verify.BATCH)])).all(axis=1).tolist()
        moved = swept_reports(moved, coloring_mode)
        for x, y, same in zip(reports, moved, same_sizes, strict=True):
            for r, s in zip(x.results, y.results, strict=True):
                if r.check_id in ("clique_twin_refine", "indep_twin_refine"):
                    assert (r.slack, r.verdict, r.witness) == (s.slack, s.verdict, s.witness), \
                        (x.head.graph6, r.check_id)
                if same:
                    assert r.slack.keys() == s.slack.keys(), (x.head.graph6, r.check_id)


def test_diameter_refine():
    a = analyze(gen_comp_s62())
    r = _by_id(run_checks(a), "diameter_refine")
    assert r.verdict == "pass"
    assert r.slack["mu_below_minus_diam_bound"] == 0.0  # 6 = 8 - max(2,1): tight

    a = analyze(gen_cycle(10))
    r = _by_id(run_checks(a), "diameter_refine")
    assert r.verdict == "pass"
    assert r.slack["mu_below_minus_diam_bound"] == 1 - 6

    a = analyze(gen_complete_multipartite([3, 3, 3, 2]))
    r = _by_id(run_checks(a), "diameter_refine")
    assert r.verdict == "pass"
    assert "mu_below_minus_diam_bound" not in r.slack  # diameter 2
    assert r.slack["mu_below_minus_bound"] == 5 - 9

    r = _by_id(run_checks(analyze(gen_path(4))), "diameter_refine")
    assert r.verdict == "not-applicable"  # n < 5


def test_check_result_verdict_follows_its_claims():
    r = CheckResult("x")
    assert (r.verdict, r.applicable, r.witness, r.slack) == ("pass", True, None, {})  # vacuous
    r = CheckResult("y", reason="n < 4")
    assert (r.verdict, r.applicable, r.witness, r.slack) == ("not-applicable", False, None, {})

    # P8 has b_chi = 12 and class sizes (4, 4). Give it a spectrum with one
    # eigenvalue within INT_TOL below 12 and the next two beyond it: each
    # eigenvalue claim is decided by the count, never by a tolerance
    values = np.array([12 - INT_TOL / 2, 12 - 2 * INT_TOL, 12 - 2 * INT_TOL, 5, 4, 3, 2, 0])
    count = int(counts_at_least(values, 12))
    assert count == 1
    a = analyze(gen_path(8))._replace(values=values.tolist(), m_ge_b=count, mu_below_b=8 - count)
    assert (a.b_chi, a.sizes, a.complement_components) == (12, (4, 4), 1)

    r = _by_id(run_checks(a), "ah_bound")
    assert (r.verdict, r.applicable, r.witness) == ("pass", True, None)
    assert r.slack == {"dl1_minus_b_chi": (12 - INT_TOL / 2) - 12.0}

    r = _by_id(run_checks(a), "k_range")  # dL_2 .. dL_3 >= 12, and dL_2 >= 12
    assert (r.verdict, r.applicable) == ("fail", True)
    assert list(r.slack) == ["k_range", "second_eigenvalue"]
    assert r.witness == {"violations": [
        {"claim": "k_range", "lhs": 12 - 2 * INT_TOL, "rhs": 12.0},
        {"claim": "second_eigenvalue", "lhs": 12 - 2 * INT_TOL, "rhs": 12.0},
    ]}

    r = _by_id(run_checks(a), "many_above_b_chi")  # two integer misses: 1 >= 4 - 1, which no tolerance forgives
    assert r.slack == {"count_ge_b_minus_ell1m1": -2.0, "count_ge_b_minus_ceilm1": -2.0}
    assert [v["claim"] for v in r.violations] == list(r.slack)

    r = _by_id(run_checks(a), "diameter_refine")  # two upper bounds miss by 2, the identity holds
    assert r.verdict == "fail"
    assert r.slack == {"mu_below_minus_bound": 2.0, "mu_below_minus_diam_bound": 2.0,
                       "counting_identity": 0.0}
    assert r.witness == {"violations": [
        {"claim": "mu_below_minus_bound", "lhs": 7.0, "rhs": 5.0},
        {"claim": "mu_below_minus_diam_bound", "lhs": 7.0, "rhs": 5.0},
    ]}
    assert all(type(v) is float for v in r.slack.values())

    # the exact equalities: n twice where the complement's one component
    # allows it 0 times, and a count below b_chi that breaks the identity
    r = _by_id(run_checks(a), "n_multiplicity")
    assert (r.verdict, r.slack) == ("pass", {"mu_at_n_minus_cm1": 0.0})
    r = _by_id(run_checks(a._replace(mu_at_n=2)), "n_multiplicity")
    assert (r.verdict, r.slack) == ("fail", {"mu_at_n_minus_cm1": 2.0})
    assert r.witness == {"violations": [{"claim": "mu_at_n_minus_cm1", "lhs": 2.0, "rhs": 0.0}]}
    r = _by_id(run_checks(a._replace(mu_below_b=6)), "diameter_refine")  # 6 + 1 != 8
    assert r.slack == {"mu_below_minus_bound": 1.0, "mu_below_minus_diam_bound": 1.0,
                       "counting_identity": -1.0}
    assert r.witness == {"violations": [
        {"claim": "mu_below_minus_bound", "lhs": 6.0, "rhs": 5.0},
        {"claim": "mu_below_minus_diam_bound", "lhs": 6.0, "rhs": 5.0},
        {"claim": "counting_identity", "lhs": 7.0, "rhs": 8.0},
    ]}


# ---------------------------------------------------------------------------
# run_checks and reports
# ---------------------------------------------------------------------------

def test_run_all_k22111_all_pass():
    report = run_checks(analyze(gen_complete_multipartite([2, 2, 1, 1, 1])))
    assert report.ok
    assert [r.check_id for r in report.results] == [cid for cid, _ in CHECKS]


def test_run_all_k5_na_pattern():
    report = run_checks(analyze(gen_complete(5)))
    verdicts = {r.check_id: r.verdict for r in report.results}
    assert verdicts["ah_bound"] == "not-applicable"
    assert verdicts["many_above_b_chi"] == "not-applicable"
    assert report.ok


def test_run_all_rejects_disconnected():
    with pytest.raises(ValueError):
        run_checks(analyze(toggle_edge(gen_path(3), 0, 1)))


def test_run_all_max_ell1_mode():
    a = analyze(gen_path(7), "max-l1")
    assert run_checks(a).ok
    assert a.colors == max_ell1_colors(gen_path(7))
    assert a.sizes[0] == 4


def test_a_check_that_returns_a_reason_makes_no_claim(mode_analyses):
    # a report's results read each check's reason and labels back from its
    # keys: None and the check id, then False and the reason, or the labels.
    # That holds only if a check whose gate fails appended nothing before
    # it, no label and no failed claim, so its False comes right after its id
    _, corpus = mode_analyses
    ids = [cid for cid, _ in CHECKS]
    gated_ids = set()
    for analyses in corpus.values():
        for a in analyses:
            report = run_checks(a)
            keys = report.keys
            heads = [i for i, k in enumerate(keys) if k is None]
            assert [keys[h + 1] for h in heads] == ids, a.graph6
            assert [r.check_id for r in report.results] == ids, a.graph6
            gated = set()
            for pos, (start, end) in enumerate(zip(heads, [*heads[1:], len(keys)])):
                body = keys[start + 2:end]
                if any(k is False for k in body):
                    assert body[0] is False and len(body) == 2, (a.graph6, ids[pos])
                    gated.add(pos)
            assert len(report.slacks) == len(keys) - 2 * len(heads) - 2 * len(gated), a.graph6
            assert not gated & {pos for pos, _ in report.failed}, a.graph6
            gated_ids.update(ids[pos] for pos in gated)
    assert gated_ids == {"ah_bound", "many_above_b_chi", "k_range", "clique_twin_refine",
                         "indep_twin_refine", "diameter_refine"}


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
        raise AssertionError("optimal_colors must not run in max-l1 mode")

    monkeypatch.setattr(verify, "optimal_colors", refuse)
    with pytest.raises(ValueError, match="n <= 16"):
        analyze(gen_path(17), coloring_mode="max-l1")


def test_analyze_many_matches_analyze_on_corpus():
    for n in range(1, 8):
        graphs = list(enumerate_connected(n))
        single = [analyze(g) for g in graphs]
        for size in (len(graphs), 1, 64):
            for i in range(0, len(graphs), size):
                assert_columns_match_analyze(analyze_many(graphs[i:i + size]))
        # the stacked facts and counts equal their one-graph definitions
        for a in single:
            assert (a.n, a.chi) == (n, len(set(a.colors)))
            assert a.b_chi == n + math.ceil(n / a.chi)
            assert a.ceil_n_chi == math.ceil(n / a.chi)
            assert a.dl1 == a.values[0] and all(type(v) is float for v in a.values)
            assert a.universal_vertices == universal_vertex_count(a.graph)
            dist = distance_stack([a.graph])[0]
            assert a.diameter == int(dist.max())
            assert a.wiener == int(dist.sum()) // 2
            assert a.m == len(a.graph.edges())
            blocks = [n + s for s in a.sizes if s >= 2]
            assert [sum(v >= c - INT_TOL for v in a.values) for c in (a.b_chi, *blocks)] == [
                a.m_ge_b, *a.block_counts]
            assert a.mu_below_b == n - a.m_ge_b
            assert [sum(abs(v - c) <= INT_TOL for v in a.values)
                    for c in (n, *(t.forced_value for t in a.twins))] == [a.mu_at_n, *a.twin_mults]


def test_analyze_many_matches_analyze_on_mixed_stacks_above_n8():
    # seeded connected graphs with n 9..64 in stacks of 1 to 4 graphs: a stack
    # of more than one takes its greedy starts and complement counts from the
    # stacked kernels, a stack of one from the per-graph functions. Each order
    # mixes sparse graphs with 0-3 vertices joined to every other (clique
    # twins), complete multipartite graphs (independent twins) and the
    # complement of a path whose far end has label 1, whose complement
    # component count needs every squaring (as in the test below)
    rng = random.Random(964)
    for n in (9, 12, 16, 23, 37, 64):
        path = [0, *range(2, n), 1]
        graphs = [complement(Graph.from_edges(n, zip(path, path[1:])))]
        for i in range(10):
            if i % 3 == 2:
                cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(n - 1, 6))))
                graphs.append(gen_complete_multipartite(
                    [b - a for a, b in zip([0, *cuts], [*cuts, n])]))
                continue
            edges = [(rng.randrange(v), v) for v in range(1, n)]  # a random spanning tree
            edges += [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.1]
            for w in rng.sample(range(n), i % 4):
                edges += [(w, v) for v in range(n) if v != w]
            graphs.append(Graph.from_edges(n, edges))
        assert any(a.twins for a in map(analyze, graphs)), n
        modes = ("default", "max-l1") if n <= 16 else ("default",)
        for mode in modes:
            start = 0
            for size in (4, 1, 3, 3):
                assert_columns_match_analyze(analyze_many(graphs[start:start + size], mode), mode)
                start += size
            assert start == len(graphs)


def test_analyze_many_matches_analyze_on_relabeled_n8_slices():
    # the input shape of the corpus8-audit benchmark: sweep-sized slices of
    # the n = 8 corpus, each graph under a seeded relabeling, analyzed as one
    # stack (stacked greedy starts and complement counts) and alone, in both
    # coloring modes
    graphs = list(enumerate_connected(8))
    rng = random.Random(2808)
    for start in (0, 3584, 7168, 10240):
        stack = [relabel(g, random_permutation(rng, 8))
                 for g in graphs[start:start + verify.BATCH]]
        assert len(stack) == 512
        for mode in ("default", "max-l1"):
            assert_columns_match_analyze(analyze_many(stack, mode), mode)


def test_stacked_universal_vertex_counts_match_the_per_graph_count():
    # seeded connected graphs up to n = 64, each with 0-3 vertices joined to
    # every other; sparse elsewhere, so their colorings stay quick
    rng = random.Random(64)
    for n in (8, 13, 21, 34, 64):
        graphs = []
        for i in range(6):
            edges = [(rng.randrange(v), v) for v in range(1, n)]  # a random spanning tree
            edges += [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.08]
            for w in rng.sample(range(n), i % 4):
                edges += [(w, v) for v in range(n) if v != w]
            graphs.append(Graph.from_edges(n, edges))
        counts = [universal_vertex_count(g) for g in graphs]
        assert max(counts) >= 3, n
        assert analyze_many(graphs).universal_vertices.tolist() == counts
        assert [analyze(g).universal_vertices for g in graphs] == counts  # stacks of one


def test_stacked_complement_component_counts_match_the_per_graph_count():
    # every connected n <= 8 graph in the sweep's slices
    for n in range(1, 9):
        graphs = list(enumerate_connected(n))
        for i in range(0, len(graphs), verify.BATCH):
            stack = graphs[i:i + verify.BATCH]
            assert (complement_component_counts(distance_stack(stack) == 1).tolist()
                    == [complement_component_count(g) for g in stack]), (n, i)
    # seeded stacks up to n = 64: sparse graphs with 0-3 vertices joined to every
    # other, and complete multipartite graphs, whose complements have a
    # component per part
    rng = random.Random(33)
    for n in (9, 16, 33, 64):
        graphs = []
        for i in range(8):
            if i % 2:
                cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
                graphs.append(gen_complete_multipartite(
                    [b - a for a, b in zip([0, *cuts], [*cuts, n])]))
                continue
            edges = [(rng.randrange(v), v) for v in range(1, n)]  # a random spanning tree
            edges += [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.08]
            for w in rng.sample(range(n), i % 4):
                edges += [(w, v) for v in range(n) if v != w]
            graphs.append(Graph.from_edges(n, edges))
        counts = [complement_component_count(g) for g in graphs]
        assert max(counts) >= 4, n
        assert complement_component_counts(distance_stack(graphs) == 1).tolist() == counts
        assert analyze_many(graphs).complement_components.tolist() == counts
        assert [analyze(g).complement_components for g in graphs] == counts  # stacks of one
        # the complement of the path 0, 2, 3, ..., n - 1, 1: in the path every
        # vertex but 0 and 1 has a lower neighbor, and 0 reaches 1 only in
        # n - 1 steps, so the count is right only after the last squaring
        path = [0, *range(2, n), 1]
        far = complement(Graph.from_edges(n, zip(path, path[1:])))
        assert complement_component_counts(distance_stack([far, *graphs]) == 1).tolist() == [
            1, *counts]


def test_analyze_many_max_ell1_mode_matches_analyze():
    assert_columns_match_analyze(analyze_many(list(enumerate_connected(6)), "max-l1"), "max-l1")


# SHA-256 over every connected graph with n <= 7, in enumeration order, of the
# repr of its integer facts: graph6, chi, b_chi, the coloring's classes, the
# spectral counts, the twin multiplicities, the complement component count and
# the universal vertex count. Integers only, so the digests do not depend on
# the BLAS build; any change to a coloring or a count changes them.
INTEGER_FACTS_SHA256 = {
    "default": "c0a1af5d3ea4ac7c0150b86e4c8f6773e33fbfbf490b87cfa02ff2e9de76166f",
    "max-l1": "d0b6ac5f3e28a202f3038c1e5992565473feb589eb365d763fa458871483b144",
}


def test_integer_facts_are_pinned(corpus_analyses, corpus_analyses_max_l1):
    for mode, analyses in (("default", corpus_analyses), ("max-l1", corpus_analyses_max_l1)):
        digest = hashlib.sha256()
        for n in range(1, 8):
            for a in analyses[n]:
                facts = (a.graph6, a.chi, a.b_chi, classes_of(a.colors), a.m_ge_b,
                         a.mu_below_b, a.mu_at_n, a.twin_mults, a.complement_components,
                         a.universal_vertices)
                digest.update(repr(facts).encode())
        assert digest.hexdigest() == INTEGER_FACTS_SHA256[mode], mode


# The same kind of digest over the facts the pin above leaves out: the
# coloring's block counts, the diameter, the Wiener index and the edge count.
BLOCK_AND_DISTANCE_FACTS_SHA256 = {
    "default": "6b10af822ade54acc489216650876c8f1018d6165af0b047a04469bb52fb5e77",
    "max-l1": "f7799f07981b4505826942fef9abc677b3b2c7048c49aaf7d68a95bcaaba6cc4",
}


def test_block_counts_and_distance_facts_are_pinned(corpus_analyses, corpus_analyses_max_l1):
    for mode, analyses in (("default", corpus_analyses), ("max-l1", corpus_analyses_max_l1)):
        digest = hashlib.sha256()
        for n in range(1, 8):
            for a in analyses[n]:
                digest.update(repr((a.graph6, a.block_counts, a.diameter, a.wiener, a.m)).encode())
        assert digest.hexdigest() == BLOCK_AND_DISTANCE_FACTS_SHA256[mode], mode


def test_sweep_analyzes_batch_slices_and_keeps_input_order(monkeypatch):
    graphs = list(enumerate_connected(6))
    sizes = []
    real = verify.analyze_many
    monkeypatch.setattr(verify, "analyze_many",
                        lambda gs, *a: sizes.append(len(gs)) or real(gs, *a))
    monkeypatch.setattr(verify, "BATCH", 50)
    got = list(sweep(graphs, StackReports.reports))
    assert sizes == [50, 50, 12] and list(map(len, got)) == sizes
    assert [(r.head.graph6, r.ok) for reports in got for r in reports] == [
        (head.graph6, True) for head in real(graphs).heads()]
    assert list(sweep([], StackReports.tallies)) == []


def test_analyze_many_rejects_a_disconnected_graph_in_the_batch():
    split = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        analyze_many([gen_path(4), split, gen_cycle(4)])
    with pytest.raises(ValueError, match="one order"):
        analyze_many([gen_path(4), gen_path(5)])
    assert analyze_many([]) == []


def test_counting_identity_on_corpus(corpus_analyses):
    for n, analyses in corpus_analyses.items():
        for a in analyses:
            assert a.mu_below_b + a.m_ge_b == n


def _eigenvalue_claims(a: GraphAnalysis) -> dict[tuple[str, str], tuple[int, int]]:
    """(k, c) of each claim values[k] >= c, by check id and label."""
    ell, n, b = a.sizes, a.n, a.b_chi
    claims = {("ah_bound", "dl1_minus_b_chi"): (0, b),
              ("k_range", "k_range"): (a.ceil_n_chi - 2, b),
              ("k_range", "second_eigenvalue"): (1, b)}
    s_j = 0
    for j, ell_j in enumerate(ell, start=1):
        s_j += ell_j - 1
        claims["color_majorization", f"block_{j}"] = (s_j - 1, n + ell_j)
    return claims


def test_count_verdicts_equal_the_float_comparisons(mode_analyses):
    # each eigenvalue claim is decided by a count; the float comparison it
    # replaced must give the same verdict on every such claim of the corpus
    coloring_mode, corpus = mode_analyses
    decided = 0
    for analyses in corpus.values():
        for a in analyses:
            claims = _eigenvalue_claims(a)
            for r in run_checks(a).results:
                failed = {v["claim"] for v in r.violations}
                for label in r.slack:
                    if (r.check_id, label) in claims:
                        k, c = claims[r.check_id, label]
                        assert (label not in failed) == (not a.values[k] < c - INT_TOL)
                        decided += 1
    assert decided == {"default": 4696, "max-l1": 4720}[coloring_mode]  # every such claim

def _records(report):
    """The dict form of a graph's records, the reference both encoders match."""
    a = report.head
    return [{"graph6": a.graph6, "n": a.n, "m": a.m, "chi": a.chi, "b_chi": a.b_chi,
             "check_id": r.check_id, "applicable": r.applicable, "verdict": r.verdict,
             "slack": r.slack, "witness": r.witness if r.witness is not None else r.reason}
            for r in report.results]


def _json_dumps_lines(report):
    """The reference serialization report_jsonl must reproduce byte for byte."""
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in _records(report))


def _dict_writer_rows(report):
    """The reference CSV rows report_csv must reproduce byte for byte."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS, lineterminator="\n")
    for rec in _records(report):
        witness = rec["witness"]
        writer.writerow({**rec, "slack": json.dumps(rec["slack"], sort_keys=True),
                         "witness": json.dumps(witness, sort_keys=True)
                         if isinstance(witness, dict) else witness})
    return buf.getvalue()


def test_report_records_roundtrip():
    report = run_checks(analyze(gen_g_clq()))
    records = _records(report)
    assert len(records) == len(CHECKS)
    parsed = [json.loads(line) for line in report_jsonl(report).splitlines()]
    assert parsed == json.loads(json.dumps(records))
    for rec in parsed:
        assert set(rec) == {"graph6", "n", "m", "chi", "b_chi", "check_id",
                            "applicable", "verdict", "slack", "witness"}
    # re-ingesting the graph6 field reproduces identical verdicts
    again = run_checks(analyze(parse_graph6(parsed[0]["graph6"])))
    assert [(r.check_id, r.verdict) for r in again.results] == \
           [(rec["check_id"], rec["verdict"]) for rec in parsed]

    csv_text = CSV_HEADER + report_csv(report)
    assert csv_text.splitlines()[0] == "graph6,n,m,chi,b_chi,check_id,applicable,verdict,slack,witness"
    assert len(csv_text.splitlines()) == len(CHECKS) + 1
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert [(row["check_id"], row["verdict"]) for row in rows] == \
           [(rec["check_id"], rec["verdict"]) for rec in parsed]


def test_report_jsonl_matches_json_dumps_on_corpus(mode_reports):
    _, corpus = mode_reports
    for reports in corpus.values():
        for report in reports:
            graph6 = report.head.graph6
            assert report_jsonl(report) == _json_dumps_lines(report), graph6
            assert report_csv(report) == _dict_writer_rows(report), graph6


def test_report_jsonl_matches_json_dumps_on_rare_values(corpus_analyses):
    # a graph6 holding a backslash, which JSON escapes
    a = next(a for a in corpus_analyses[7] if "\\" in a.graph6)
    violation = {"claim": "dl1_minus_b_chi", "lhs": 9.5, "rhs": 10.0}
    report = report_of(a, [
        CheckResult("ah_bound", {"dl1_minus_b_chi": -0.5, "a_first": 0.0}, (violation,)),
        CheckResult("k_range", reason='n < 4, "quoted" \\ \u00e9'),
        CheckResult("color_majorization",
                    {"twin1_lower": math.inf, "block_1": -math.inf, "block_2": math.nan,
                     "block_3": -0.0, "block_4": 1e-17, "block_5": 1e22, "block_6": 0.1 + 0.2}),
        CheckResult("n_multiplicity", {}),
    ])
    assert [r.verdict for r in report.results] == ["fail", "not-applicable", "pass", "pass"]
    assert report_jsonl(report) == _json_dumps_lines(report)
    assert report_csv(report) == _dict_writer_rows(report)


@pytest.mark.parametrize("case", ["mu_at_n", "twin_mult"])
def test_a_failing_analysis_writes_its_witness_through_the_record_writer(case):
    # a failing analysis through run_checks into report_jsonl, and through
    # the claim table into the corpus fold: P8 with the eigenvalue n twice
    # where its connected complement allows it 0 times, and K_{3,5} with its
    # part of size 5 one eigenvalue short of its forced multiplicity
    if case == "mu_at_n":
        a = analyze(gen_path(8))._replace(mu_at_n=2)
        check_id = "n_multiplicity"
        violation = {"claim": "mu_at_n_minus_cm1", "lhs": 2.0, "rhs": 0.0}
    else:
        a = analyze(gen_complete_multipartite([3, 5]))
        a = a._replace(twin_mults=(3, a.twin_mults[1]))
        check_id = "indep_twin_refine"
        violation = {"claim": "twin2_mult", "lhs": 3.0, "rhs": 4.0, "members": [0, 1, 2, 3, 4]}
    report = run_checks(a)
    text = report_jsonl(report)
    assert text == _json_dumps_lines(report)
    records = [json.loads(line) for line in text.splitlines()]
    failed = [r for r in records if r["verdict"] == "fail"]
    assert [r["check_id"] for r in failed] == [check_id]
    assert failed[0]["witness"] == {"violations": [violation]}
    ids = [cid for cid, _ in CHECKS]
    expected = tuple("fail" if cid == check_id else r["verdict"] for cid, r in zip(ids, records))
    stack = stack_of([a])
    with analyzed_as(stack, [a]):
        table = run_checks_many(stack)
    assert cli._corpus_fold("json", False, table) == (text, {expected: 1}, None)
    assert expected.count("fail") == 1
    assert cli._corpus_fold("csv", False, table)[0] == report_csv(report)
    assert cli._corpus_fold("pretty", True, table) == ("", {expected: 1}, [report.head])
    assert not report.ok and [r.check_id for r in report.failures] == [check_id]


def test_record_shapes_stay_apart_in_the_template_cache(corpus_analyses):
    # one check id and label tuple passing, failing and with non-finite
    # slacks, not-applicable results, % signs, braces, quotes and non-ASCII
    # text in reasons, labels and ids, and numpy float slacks, rendered alone
    # and together with the cache starting empty, a pass first and then a fail first
    a = corpus_analyses[7][100]
    slack = {"block_2": 1.5, "block_1": -0.0}
    passing = CheckResult("color_majorization", slack)
    failing = CheckResult("color_majorization", {"block_2": -1.0, "block_1": 0.25}, (
        {"claim": "block_2", "lhs": 9.0, "rhs": 10.0, "members": [0, 1]},))
    non_finite = CheckResult("color_majorization", {"block_2": math.inf, "block_1": math.nan})
    odd_reason = CheckResult("color_majorization", reason='50% "quoted" \\ \u00e9 %s %%')
    other_reason = CheckResult("color_majorization", reason="n < 4")
    odd_label = CheckResult("color_majorization", {"100%_b": 2.0, "a %r": 0.1})
    odd_id = CheckResult('id %s "\u00e9"', {"b": 1.0, "a": 2.0})
    numpy_floats = CheckResult("k_range", {"k_range": np.float64(0.1), "second_eigenvalue": np.float64(-2e-17)})
    brace_label = CheckResult("color_majorization", {"{0}": 2.0, "b}{": 0.5, "{{%s}}": -1.0})
    brace_reason = CheckResult("color_majorization", reason="{} {0} {{ }} {")
    brace_id = CheckResult("id {0} }", {"{": 1.0, "}": 2.0})
    shapes = [passing, failing, non_finite, odd_reason, other_reason, odd_label, odd_id, numpy_floats,
              brace_label, brace_reason, brace_id]
    for results in (shapes, shapes[1:2] + shapes[:1] + shapes[2:]):
        verify._record_plan.cache_clear()
        for r in results:
            report = report_of(a, [r])
            assert report_jsonl(report) == _json_dumps_lines(report), r
        report = report_of(a, results)
        assert report_jsonl(report) == _json_dumps_lines(report)
        templated = [r for r in results if r is not failing and r is not non_finite]
        report = report_of(a, templated)
        assert report_jsonl(report) == _json_dumps_lines(report)
    assert json.loads(report_jsonl(report_of(a, [failing])))["verdict"] == "fail"

    # the cache keeps at most TEMPLATE_SHAPES shapes however many it meets:
    # whole nine-check shapes, each with its own last label
    verify._record_plan.cache_clear()
    first = run_checks(a).results[:-1]
    for i in range(verify.TEMPLATE_SHAPES + 100):
        report = report_of(a, [*first, CheckResult("diameter_refine", {f"claim_{i}": i / 7, "z": 1.0})])
        assert report_jsonl(report) == _json_dumps_lines(report)
    info = verify._record_plan.cache_info()
    assert info.misses > verify.TEMPLATE_SHAPES and info.currsize <= verify.TEMPLATE_SHAPES


# ---------------------------------------------------------------------------
# the claim table
# ---------------------------------------------------------------------------

def _both_ways(a: GraphAnalysis) -> list:
    """The reports of a by run_checks and by the claim table, in a stack of a alone."""
    stack = stack_of([a])
    with analyzed_as(stack, [a]):
        return [run_checks(a), *run_checks_many(stack).reports()]


def _boundary_cases():
    """(check id, the analysis at a claim's threshold, the analysis one step
    below it, the violations of the check below it): a claim whose count is
    weakened by one still passes every real graph, since no real graph
    comes near (dl1_minus_b_chi, block_j and k_range)."""
    near = analyze(toggle_edge(gen_complete(6), 0, 1))  # m_ge_b = 1, as dL1 > b_chi needs
    assert near.m_ge_b == 1
    yield ("ah_bound", near, near._replace(m_ge_b=0, mu_below_b=6),
           [{"claim": "dl1_minus_b_chi", "lhs": near.dl1, "rhs": 8.0}])
    k33 = analyze(gen_complete_multipartite([3, 3]))  # hi = ceil(6/2) - 1 = 2
    below = k33._replace(m_ge_b=1, mu_below_b=5)
    yield ("k_range", k33._replace(m_ge_b=2, mu_below_b=4), below,
           [{"claim": "k_range", "lhs": k33.values[1], "rhs": 9.0},
            {"claim": "second_eigenvalue", "lhs": k33.values[1], "rhs": 9.0}])
    k332 = analyze(gen_complete_multipartite([3, 3, 2]))  # s_j = 2, 4 and 5
    for j, (s_j, ell_j) in enumerate([(2, 3), (4, 3), (5, 2)]):
        counts = [2, 4, 5]
        at = k332._replace(block_counts=tuple(counts))
        counts[j] -= 1
        yield ("color_majorization", at, k332._replace(block_counts=tuple(counts)),
               [{"claim": f"block_{j + 1}", "lhs": k332.values[s_j - 1], "rhs": 8.0 + ell_j}])


def test_claims_hold_exactly_at_their_thresholds():
    # run_checks and the claim table pass each analysis at the threshold,
    # the table deciding it from its columns, and fail the check one step
    # below it with exactly the violations expected
    for check_id, at, below, violations in _boundary_cases():
        for report in _both_ways(at):
            assert report.ok, (check_id, at.block_counts)
        assert type(_both_ways(at)[1].keys) is tuple  # filled by the table itself
        for report in _both_ways(below):
            (result,) = [r for r in report.results if r.check_id == check_id]
            assert result.verdict == "fail", (check_id, below.block_counts)
            assert result.witness == {"violations": violations}, check_id


def test_claim_table_matches_run_checks_on_corpus(mode_reports, mode_corpus_analyses):
    # every connected graph with n <= 7, and as corpus8 cases every n = 8
    # graph, in the sweep's stacks; none fails a claim, so the table fills
    # every report
    mode, corpus = mode_reports
    for n in corpus:
        analyses = mode_corpus_analyses[mode, n]
        tabled = sum(assert_table_matches_run_checks(analyses[i:i + verify.BATCH])
                     for i in range(0, len(analyses), verify.BATCH))
        assert tabled == len(analyses), n
    if 8 in corpus:
        assert len(corpus[8]) == 11117


def test_claim_table_matches_run_checks_on_relabeled_n8_slices():
    # the corpus8-audit benchmark's input shape: sweep-sized slices of the
    # n = 8 corpus under a seeded relabeling, in both coloring modes
    graphs = list(enumerate_connected(8))
    rng = random.Random(2929)
    for start in (0, 3584, 7168, 10605):
        stack = [relabel(g, random_permutation(rng, 8))
                 for g in graphs[start:start + verify.BATCH]]
        assert len(stack) == 512
        for mode in ("default", "max-l1"):
            assert assert_table_matches_run_checks(analyze_many(stack, mode)) == 512


def test_claim_table_matches_run_checks_at_the_gate_edges():
    # the orders where a check's hypothesis starts to hold (n < 4, n < 5), the
    # complete graphs every chi-gated check skips, and K_n minus an edge,
    # whose chi is n - 1
    stacks = [[gen_complete(1)] * 2, [gen_complete(2)] * 2, [gen_path(3), gen_complete(3)],
              list(enumerate_connected(4)), list(enumerate_connected(5))]
    for n in range(3, 11):
        near = toggle_edge(gen_complete(n), 0, 1)
        stacks += [[gen_complete(n)] * 2, [gen_complete(n), near, gen_path(n)]]
    for stack in stacks:
        for mode in ("default", "max-l1"):
            assert assert_table_matches_run_checks(analyze_many(stack, mode)) == len(stack)


def _joined_cliques(rng: random.Random, n: int) -> Graph:
    """The join of 2-4 blocks, each a disjoint union of cliques of 1-4
    vertices, relabeled: each clique of 2 or more is a clique twin class,
    the single vertices of a block an independent one. A cograph, so exact
    coloring is quick at any n."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
    blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    edges = [(u, v) for i, x in enumerate(blocks) for y in blocks[:i] for u in x for v in y]
    for block in blocks:
        start = block.start
        while start < block.stop:
            clique = range(start, min(block.stop, start + rng.randint(1, 4)))
            edges += [(u, v) for u in clique for v in clique if u < v]
            start = clique.stop
    return relabel(Graph.from_edges(n, edges), random_permutation(rng, n))


def _tree_with_twins(rng: random.Random, n: int) -> Graph:
    """A random tree on n // 3 vertices with groups of 2-3 more vertices hung
    from one tree vertex each, as leaves (an independent twin class with the
    other leaves there) or as a clique (a clique twin class), relabeled."""
    start = max(2, n // 3)
    edges = [(rng.randrange(v), v) for v in range(1, start)]  # a random spanning tree
    while start < n:
        group = range(start, min(n, start + rng.randint(2, 3)))
        hub = rng.randrange(start)
        edges += [(hub, v) for v in group]
        if rng.random() < 0.5:
            edges += [(u, v) for u in group for v in group if u < v]
        start = group.stop
    return relabel(Graph.from_edges(n, edges), random_permutation(rng, n))


def test_claim_table_matches_run_checks_on_twin_rich_stacks_above_n8():
    # seeded same-order stacks with n 9..64: joined cliques and trees with
    # hung twins, each with several twin classes of each kind, and complete
    # multipartite graphs
    rng = random.Random(4096)
    for n in (9, 11, 16, 23, 37, 64):
        graphs = [make(rng, n) for make in (_joined_cliques, _tree_with_twins) for _ in range(3)]
        for _ in range(2):
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(n - 1, 7))))
            graphs.append(gen_complete_multipartite(
                [b - a for a, b in zip([0, *cuts], [*cuts, n])]))
        for mode in ("default", "max-l1") if n <= 16 else ("default",):
            stack = analyze_many(graphs, mode)
            for kind in ("clique", "independent"):
                classes = stack.twins.graph[stack.twins.kind == KINDS.index(kind)]
                assert np.bincount(classes).max() >= 2, n  # some graph has two such classes
            assert assert_table_matches_run_checks(stack) == len(graphs)


def test_claim_table_hands_failing_and_non_finite_rows_to_run_checks():
    # passing n = 8 rows mixed with P8 holding the eigenvalue n twice, K_{3,5}
    # one eigenvalue short of its part of 5's forced multiplicity, and rows
    # whose dL1 is infinite or not a number; only the passing rows are tabled,
    # and a non-finite value no claim reads changes nothing
    p8, k35, c8, k44 = map(analyze, [gen_path(8), gen_complete_multipartite([3, 5]),
                                     gen_cycle(8), gen_complete_multipartite([4, 4])])
    mu_at_n = p8._replace(mu_at_n=2)
    short = k35._replace(twin_mults=(3, k35.twin_mults[1]))
    infinite = c8._replace(values=[math.inf, *c8.values[1:]])
    nan = k44._replace(values=[math.nan, *k44.values[1:]])
    unread = c8._replace(values=[*c8.values[:-1], math.nan])  # the eigenvalue 0
    stack = [p8, mu_at_n, c8, short, infinite, k35, nan, unread, k44]
    assert assert_table_matches_run_checks(stack) == 5
    table = stack_of(stack)
    with analyzed_as(table, stack):
        decided = run_checks_many(table)
    reports = decided.reports()
    assert [r.ok for r in reports] == [True, False, True, False, True, True, True, True, True]
    assert [r.failures[0].check_id for r in reports if not r.ok] == [
        "n_multiplicity", "indep_twin_refine"]
    # the rows decided alone keep their reports; the stack's records and
    # tallies hold them in row order (assert_table_matches_run_checks)
    assert sorted(decided.alone) == [1, 3, 4, 6]
    assert sum(count for verdicts, count in decided.tallies().items() if "fail" in verdicts) == 2
    assert assert_table_matches_run_checks([mu_at_n, short]) == 0


def test_claim_table_shapes_share_keys_and_template_entries(corpus_analyses, monkeypatch):
    # every passing report holds _record_plan's own plan for its shape and
    # that plan's keys tuple; the shape cache keeps at most TEMPLATE_SHAPES shapes
    monkeypatch.setattr(verify, "_SHAPES", {})
    reports = run_checks_many(stack_of(corpus_analyses[7])).reports()
    shapes = {id(plan.keys): plan for plan in verify._SHAPES.values()}
    assert len(shapes) > 10
    for report in reports:
        plan = shapes[id(report.keys)]
        assert report._plan is plan is verify._record_plan(plan.keys)
    monkeypatch.setattr(verify, "_SHAPES", {})
    monkeypatch.setattr(verify, "TEMPLATE_SHAPES", 4)
    assert assert_table_matches_run_checks(corpus_analyses[7]) == len(corpus_analyses[7])
    assert len(verify._SHAPES) == 4


def test_claim_table_refuses_a_shape_its_checker_disagrees_with(corpus_analyses, monkeypatch):
    # columns that disagree with analyze on the first graph of a new shape
    # stop the table before it takes the shape's keys: here each incomplete
    # graph's dL1 column entry is one above its analysis's dL1, which moves
    # the slack of a claim every one of them makes, but no verdict
    monkeypatch.setattr(verify, "_SHAPES", {})
    stack = stack_of([a for a in corpus_analyses[6] if a.chi < a.n])
    stack.values[:, 0] += 1
    with pytest.raises(RuntimeError, match="disagrees with run_checks"):
        run_checks_many(stack)
    assert not verify._SHAPES


def test_claim_table_refuses_stacked_counts_the_rows_disagree_with(monkeypatch):
    # every stacked count one too many: analyze counts each graph alone, on
    # its one 1-D spectrum, which the patch leaves as it is, so run_checks on
    # the first graph of a new shape gets other slacks; and
    # once every shape is known, the n = 6 graphs that the extra count takes
    # over an upper bound fail in the table and not in run_checks
    graphs = list(enumerate_connected(6))
    real = verify.counts_at_least
    monkeypatch.setattr(verify, "_SHAPES", {})
    for known in (False, True):
        if known:
            monkeypatch.setattr(verify, "counts_at_least", real)
            assert all(report.ok for report in swept_reports(graphs))
        monkeypatch.setattr(verify, "counts_at_least",
                            lambda values, c: real(values, c) + (values.ndim > 1))
        with pytest.raises(RuntimeError, match="disagrees with run_checks"):
            list(sweep(graphs, StackReports.tallies))


def test_claim_table_refuses_a_failing_row_its_analysis_passes():
    # a real n = 6 stack with the first block count of one graph with
    # ell_1 >= 2 zeroed: the table fails that graph's block_1 claim alone,
    # which run_checks on analyze of the graph holds
    stack = analyze_many(list(enumerate_connected(6)))
    i = int(np.flatnonzero(stack.ell1 >= 2)[0])
    stack.block_counts[i, 0] = 0
    with pytest.raises(RuntimeError, match="disagrees with run_checks") as raised:
        run_checks_many(stack)
    assert str(raised.value).endswith(f" on {to_graph6(stack.graphs[i])}")


def test_claim_table_refuses_block_counts_its_analyses_disagree_with(monkeypatch):
    # a real n = 6 stack with every nonzero block count one too many: a block
    # claim reads count >= s_j, so every claim still holds and no slack
    # moves; the first graph of a new shape compares its block counts with
    # analyze's and stops the table
    for mode in ("default", "max-l1"):
        stack = analyze_many(list(enumerate_connected(6)), mode)
        stack.block_counts[stack.block_counts > 0] += 1
        monkeypatch.setattr(verify, "_SHAPES", {})
        with pytest.raises(RuntimeError, match="disagrees with run_checks"):
            run_checks_many(stack)


def test_each_claim_has_one_statement(corpus_analyses, monkeypatch):
    # a changed checker changes the claim table with it: a shifted rhs and an
    # added claim in check_n_multiplicity reach run_checks_many's reports with
    # run_checks's keys, slacks and records, also on the shapes the table met
    # before the change
    monkeypatch.setattr(verify, "_SHAPES", {})
    analyses = corpus_analyses[6]
    run_checks_many(stack_of(analyses))  # meets the shapes before the change

    def changed(a, report):
        mu, cm1 = a.mu_at_n, a.complement_components - 1
        report.claim("mu_at_n_minus_cm1", mu, cm1 + 0.5, mu == cm1)
        report.claim("mu_at_n_below_n", mu, a.n - 1, mu <= a.n - 1, when=a.diameter >= 2)

    monkeypatch.setattr(verify, "CHECKS", tuple(
        (cid, changed if cid == "n_multiplicity" else check) for cid, check in CHECKS))
    assert assert_table_matches_run_checks(analyses) == len(analyses)
    for report, a in zip(run_checks_many(stack_of(analyses)).reports(), analyses, strict=True):
        slack = {"mu_at_n_minus_cm1": -0.5}
        if a.diameter >= 2:
            slack["mu_at_n_below_n"] = float(a.mu_at_n - a.n + 1)
        assert {r.check_id: r.slack for r in report.results}["n_multiplicity"] == slack, a.graph6


def test_sweep_decides_every_stack_by_the_claim_table(monkeypatch):
    graphs = list(enumerate_connected(6))[:101]
    tabled = []
    real = verify.run_checks_many
    monkeypatch.setattr(verify, "run_checks_many",
                        lambda analyses: tabled.append(len(analyses)) or real(analyses))
    monkeypatch.setattr(verify, "BATCH", 50)
    got = list(sweep(graphs, StackReports.jsonl))
    assert tabled == [50, 50, 1]  # the last stack, of one graph, too
    assert "".join(got) == "".join(report_jsonl(run_checks(analyze(g))) for g in graphs)


def test_sweep_stacks_count_by_columns_and_build_no_proven_coloring(monkeypatch):
    # a stack of more than one graph makes no per-graph spectral count: each
    # column count runs once per stack, over every graph (or twin class) of
    # it. Once the table knows every shape, no passing row is analyzed
    # alone, so no row counts its class sizes from its colors, also not the
    # rows whose greedy coloring is proven; the per-graph search runs only
    # for the rest
    graphs = list(enumerate_connected(7))[:300]
    monkeypatch.setattr(verify, "BATCH", 100)
    monkeypatch.setattr(verify, "_SHAPES", {})
    expected = list(sweep(graphs, StackReports.jsonl))  # meets every shape of the slices
    calls = []

    def refuse(*args):
        raise AssertionError("analyze called on a stack of more than one graph")

    monkeypatch.setattr(verify, "analyze", refuse)
    for name in ("counts_at_least", "multiplicities"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda values, c, name=name, real=real:
                            calls.append((name, len(values))) or real(values, c))
    searched = []
    real_colors = verify.optimal_colors
    monkeypatch.setattr(verify, "optimal_colors",
                        lambda g, start: searched.append(g) or real_colors(g, start))
    assert list(sweep(graphs, StackReports.jsonl)) == expected
    assert 0 < len(searched) < len(graphs) // 4  # most greedy colorings are proven
    # m_ge_b, the block counts and the multiplicity of n over the 100 graphs
    # of each stack, then the multiplicities of its twin classes' forced values
    assert [name for name, _ in calls] == [
        "counts_at_least", "counts_at_least", "multiplicities", "multiplicities"] * 3
    assert [size for _, size in calls][:3] == [100] * 3
    assert [size for _, size in calls][4:7] == [100] * 3


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
    heads = [a.head for a in corpus_analyses[7]]
    for chi in range(2, 7):
        assert audit_extremal(7, chi, analyses=heads) == \
            audit_extremal(7, chi, analyses=corpus_analyses[7])


def test_audit_extremal_fails_on_a_wrong_minimizer():
    # hand-built heads: P4 (Ch) ties K_{2,2} (C]) at the minimum 6
    tie = audit_extremal(4, 2, [Head("Ch", 4, 3, 2, 6, 6.0), Head("C]", 4, 4, 2, 6, 6.0)])
    assert not tie.ok
    assert tie.failures == ["minimizer Ch is not complete multipartite"]
    assert tie.minimizer_parts == [None, (2, 2)]
    # K_{2,2} claimed at chi = 3 and below the bound 6
    low = audit_extremal(4, 3, [Head("C]", 4, 4, 3, 6, 5.0)])
    assert low.failures == ["min dL1 = 5.0, expected 6",
                            "minimizer C] is complete 2-partite, not 3"]


# K_{a,...,a} with k parts plus one edge inside a part, for a >= 3 and k >= a,
# has chi = k + 1 and dL1 = n + a = n + ceil(n/chi), the least dL1 at that chi,
# yet it is not complete multipartite. HFzf~z} is the member (3, 3): a
# minimizer among the connected graphs with n = 9 and chi = 4.
@pytest.mark.parametrize("g, chi, spectrum", [
    pytest.param(parse_graph6("HFzf~z}"), 4, {12: 5, 10: 1, 9: 2, 0: 1}, id="HFzf~z}"),
    pytest.param(toggle_edge(gen_complete_multipartite([3] * 4), 0, 1), 5,
                 {15: 7, 13: 1, 12: 3, 0: 1}, id="a3-k4"),
    pytest.param(toggle_edge(gen_complete_multipartite([4] * 4), 0, 1), 5,
                 {20: 11, 18: 1, 16: 3, 0: 1}, id="a4-k4"),
])
def test_an_extremal_graph_that_is_not_complete_multipartite(g, chi, spectrum):
    a = analyze(g)
    assert a.chi == chi and a.b_chi == max(spectrum)
    # the product of DL - rI over the listed r is zero in exact integers, so
    # every eigenvalue is one of them and dL1 = b_chi with no tolerance
    dl = distance_laplacian(distance_stack([g]))[0].astype(object)
    product = np.identity(g.n, dtype=int).astype(object)
    for r in spectrum:
        product = product @ (dl - r * np.identity(g.n, dtype=int))
    assert not product.any()
    assert [round(v) for v in a.values] == [r for r, m in spectrum.items() for _ in range(m)]
    assert [r.verdict for r in run_checks(a).results] == ["pass"] * len(CHECKS)
    assert audit_extremal(g.n, chi, [a]).failures == [
        f"minimizer {a.graph6} is not complete multipartite"]


def test_audit_extremal_missing_chi(corpus_analyses):
    with pytest.raises(ValueError):
        audit_extremal(3, 5, analyses=corpus_analyses[3])
