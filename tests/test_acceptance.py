"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and timings.
"""

import math
import random
import time

import numpy as np

from distlap.cli import compare_table_row, computed_table_row, expected_table_rows, TABLE_GRAPHS
from distlap.eigen import cluster_values, multiplicities
from distlap.graphs import enumerate_connected, gen_complete_multipartite, is_connected
from distlap.verify import analyze, audit_extremal, run_checks
from helpers import (
    brute_force_chromatic,
    dl_spectra,
    multipartite_spectrum_closed_form,
    random_connected_graph,
    random_part_sizes,
    toggle_edge,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _check_table(table_no: int) -> tuple[bool, str, float]:
    expected = expected_table_rows()
    t0 = time.time()
    problems = []
    for tbl, label, spec in TABLE_GRAPHS:
        if tbl != table_no:
            continue
        bad = compare_table_row(computed_table_row(spec), expected[label])
        problems += [f"{label}: {b}" for b in bad]
    elapsed = time.time() - t0
    return not problems and elapsed < 1.0, "; ".join(problems) or "all cells match", elapsed


def test_criterion_1_table1_reproduction():
    ok, detail, elapsed = _check_table(1)
    _report("criterion 1 (table 1 reproduction)", ok, f"{detail}, {elapsed:.2f}s")


def test_criterion_2_table2_reproduction():
    ok, detail, elapsed = _check_table(2)
    _report("criterion 2 (table 2 reproduction)", ok, f"{detail}, {elapsed:.2f}s")


def test_criterion_3_closed_form_oracle():
    rng = random.Random(2024)
    t0 = time.time()
    worst = 0.0
    part_vectors = [random_part_sizes(rng, max_total=30) for _ in range(200)]
    numerics = dl_spectra([gen_complete_multipartite(parts) for parts in part_vectors])
    for parts, numeric in zip(part_vectors, numerics):
        n = sum(parts)
        exact = multipartite_spectrum_closed_form(parts)
        dev = float(np.max(np.abs(exact - numeric))) / n
        worst = max(worst, dev)
        assert dev <= 1e-8, (parts, dev)
    elapsed = time.time() - t0
    ok = elapsed < 30.0
    _report("criterion 3 (closed-form oracle, 200 random part vectors)", ok,
            f"worst deviation {worst:.2e} per n, {elapsed:.1f}s")


def test_criterion_4_exhaustive_theorem_suite(corpus_analyses):
    t0 = time.time()
    graphs_checked = 0
    failures = []
    for analyses in corpus_analyses.values():
        for a in analyses:
            report = run_checks(a)
            graphs_checked += 1
            for r in report.results:
                if r.verdict == "fail":
                    failures.append((report.head.graph6, r.check_id, r.witness))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    _report("criterion 4 (exhaustive theorem suite, all n<=7)", ok,
            f"{graphs_checked} graphs, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_5_edge_deletion_monotonicity():
    rng = random.Random(777)
    t0 = time.time()
    deletions = 0
    for _ in range(500):
        g = random_connected_graph(rng, 4, 12)
        deleted = {e: h for e in g.edges() if is_connected(h := toggle_edge(g, *e))}
        base, *spectra = dl_spectra([g, *deleted.values()])
        for e, vals in zip(deleted, spectra):
            deletions += 1
            assert (vals >= base - 1e-6).all(), (g, e)
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    _report("criterion 5 (edge-deletion monotonicity, 500 random graphs)", ok,
            f"{deletions} deletions checked, {elapsed:.1f}s")


def test_criterion_6_extremal_audit(corpus_analyses):
    t0 = time.time()
    problems = []
    all_findings = []
    for n in range(3, 8):
        for chi in range(2, n):
            audit = audit_extremal(n, chi, analyses=corpus_analyses[n])
            problems += [f"(n={n},chi={chi}) {f}" for f in audit.failures]
            if abs(audit.observed_min - (n + math.ceil(n / chi))) > 1e-6:
                problems.append(f"(n={n},chi={chi}) min {audit.observed_min}")
            all_findings += [(n, chi, f) for f in audit.findings]
    elapsed = time.time() - t0
    # the balanced-parts clause must be refuted by the corpus at n=7, chi=3
    has_73_finding = any(n == 7 and chi == 3 for n, chi, _ in all_findings)
    ok = not problems and has_73_finding and elapsed < 120.0
    _report("criterion 6 (extremal audit, n<=7, every chi)", ok,
            f"{len(problems)} failures, {len(all_findings)} balanced-parts finding(s), "
            f"{elapsed:.1f}s")


def test_criterion_7_coloring_oracle():
    t0 = time.time()
    checked = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert brute_force_chromatic(g) == analyze(g).chi, g
            checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    _report("criterion 7 (coloring oracle, all connected n<=6)", ok,
            f"{checked} graphs, {elapsed:.1f}s")


def test_criterion_8_spectral_sanity(corpus_analyses):
    checked = 0
    for n, analyses in corpus_analyses.items():
        for a in analyses:
            vals = np.array(a.values)
            assert multiplicities(vals, 0) == 1, a.graph6
            assert float(vals.min()) >= -1e-6, a.graph6
            assert abs(float(vals.sum()) - 2 * a.wiener) <= n * 1e-6, a.graph6
            assert sum(m for _, m in cluster_values(vals)) == n, a.graph6
            assert (np.diff(vals) <= 1e-12).all(), a.graph6  # nonincreasing
            checked += 1
    _report("criterion 8 (spectral sanity on every corpus graph)", True,
            f"{checked} graphs")
