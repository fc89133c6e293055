"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speedprobe  # noqa: E402
from distlap import cli, graphs  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def verify_output(g6: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--g6", g6, "--format", "json"])
    return rc, buf.getvalue()


def edit_records(stdout: str, check_id: str, edit) -> str:
    recs = [json.loads(line) for line in stdout.splitlines()]
    for r in recs:
        if r["check_id"] == check_id:
            edit(r)
    return "".join(json.dumps(r) + "\n" for r in recs)


@pytest.fixture(scope="module")
def good():
    g6 = inputs.stratified_graph(7, 3, (10, 16), (0.15, 0.8))
    rc, out = verify_output(g6)
    oracle.check_verify_output(g6, rc, out)
    return g6, rc, out


def test_oracle_rejects_flipped_verdict(good):
    g6, rc, out = good

    def flip(r):
        r["verdict"] = "fail"
        r["witness"] = {"violations": []}
    with pytest.raises(oracle.OracleError, match="failed"):
        oracle.check_verify_output(g6, rc, edit_records(out, "k_range", flip))


def test_oracle_rejects_not_applicable_flipped_to_pass(good):
    g6, rc, out = good
    recs = [json.loads(line) for line in out.splitlines()]
    na = next(r["check_id"] for r in recs if r["verdict"] == "not-applicable")

    def flip(r):
        r["verdict"] = "pass"
    with pytest.raises(oracle.OracleError, match="verdict"):
        oracle.check_verify_output(g6, rc, edit_records(out, na, flip))


def test_oracle_rejects_perturbed_slack(good):
    g6, rc, out = good

    def perturb(r):
        r["slack"]["dl1_minus_b_chi"] += 1e-6
    with pytest.raises(oracle.OracleError, match="dL1"):
        oracle.check_verify_output(g6, rc, edit_records(out, "ah_bound", perturb))


def test_oracle_rejects_nonzero_exit_and_wrong_graph(good):
    g6, rc, out = good
    with pytest.raises(oracle.OracleError, match="exit code"):
        oracle.check_verify_output(g6, 1, out)
    other = inputs.stratified_graph(7, 4, (10, 16), (0.15, 0.8))
    with pytest.raises(oracle.OracleError):
        oracle.check_verify_output(other, rc, out)


def test_corpus_comparison_rejects_changed_tally_and_minimum():
    ref = json.loads((HERE / "reference_corpus.json").read_text())["8"]
    oracle.compare_corpus(copy.deepcopy(ref), ref)
    bad = copy.deepcopy(ref)
    bad["tallies"]["k_range"]["pass"] -= 1
    bad["tallies"]["k_range"]["fail"] += 1
    with pytest.raises(oracle.OracleError, match="tallies"):
        oracle.compare_corpus(bad, ref)
    bad = copy.deepcopy(ref)
    bad["audits"][1]["observed_min"] += 1e-5
    with pytest.raises(oracle.OracleError, match="minimum"):
        oracle.compare_corpus(bad, ref)
    bad = copy.deepcopy(ref)
    bad["audits"][0]["minimizer_parts"] = [[5, 3]]
    with pytest.raises(oracle.OracleError, match="minimizer_parts"):
        oracle.compare_corpus(bad, ref)


def test_generator_is_a_function_of_the_seed():
    for w in run.WORKLOADS.values():
        if w.kind != "verify":
            continue
        a = inputs.graph_stream(11, w.n_range, w.density_range, 40)
        assert a == inputs.graph_stream(11, w.n_range, w.density_range, 40)
        assert a != inputs.graph_stream(12, w.n_range, w.density_range, 40)
        for g6 in a:
            g = graphs.parse_graph6(g6)
            assert w.n_range[0] <= g.n <= w.n_range[1]
            assert graphs.is_connected(g)
            assert graphs.to_graph6(g) == g6


def test_relabeled_corpus_keeps_isomorphism_classes():
    lines = (run.SRC / "distlap" / "data" / "connected7.g6").read_text().split()
    a = inputs.relabeled_corpus(5, lines)
    assert a == inputs.relabeled_corpus(5, lines)
    assert a != lines
    canon = sorted(graphs.canonical_form(graphs.parse_graph6(s)) for s in a[:60])
    assert set(canon) <= {graphs.canonical_form(graphs.parse_graph6(s)) for s in lines}


def test_multipartite_parts_matches_distlap():
    for spec in ("K:3,3,2", "K:4,1", "path:5", "cycle:6", "complete:4"):
        g = cli._parse_gen_spec(spec)
        parts = graphs.is_complete_multipartite(g)
        assert oracle.multipartite_parts(graphs.to_graph6(g)) == (list(parts) if parts else None)


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "verify-mid-maxl1", "--seed", "1", "--seconds", "0.3",
                       "--trace", str(trace)])
    assert rc == 0
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1]), name
    assert any(line.startswith("fail_frac") for line in lines)
    assert any(line.startswith("environment: ") for line in lines)


def test_speed_probe_samples_while_the_caller_computes():
    with speedprobe.SpeedProbe() as probe:
        end = time.process_time() + 0.35
        while time.process_time() < end:
            pass
    assert len(probe.samples) >= 3      # one on entry, then every 0.1 s of CPU
    assert probe.spent > 0
    assert probe.factor == speedprobe.PROBE_REF_S / statistics.mean(probe.samples)


def test_refuses_to_run_without_distlap_sources():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-dense",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
