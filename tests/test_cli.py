import csv
import io
import json
import multiprocessing
import os
from importlib import resources

import pytest

from distlap import cli, verify
from distlap.cli import TABLE_GRAPHS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_multipartite(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--gen", "K:4,4,2")
    assert code == 0
    assert "b_chi       14" in out
    assert "m[b,dL1] 6" in out
    assert out.count("14.000") == 6


def test_analyze_path_display_rounding(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--gen", "path:8")
    assert code == 0
    assert "38.446" in out


def test_analyze_g6_triangle(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--g6", "Bw")
    assert code == 0
    assert "3.000, 3.000, 0.000" in out


def test_analyze_json_full_precision(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--gen", "G_ind", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 7 and rec["chi"] == 3 and rec["b_chi"] == 10
    assert len(rec["spectrum"]) == 7
    assert rec["twin_classes"][0]["forced_value"] == 12


def test_analyze_edges_file(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("3\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "analyze", "--edges", str(path))
    assert code == 0
    assert "n, m        3, 2" in out


def test_verify_g_clq(capsys):
    code, out, _ = run_cli(capsys, "verify", "--gen", "G_clq")
    assert code == 0
    assert "all checks passed" in out
    assert "class0_lower=+3" in out  # forced 14 vs 2n-s-|N| = 11


def test_verify_complete_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "verify", "--gen", "complete:5")
    assert code == 0
    assert "ah_bound" in out and "not-applicable" in out


def test_verify_g_ind_tight_slack(capsys):
    code, out, _ = run_cli(capsys, "verify", "--gen", "G_ind", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    indep = next(r for r in records if r["check_id"] == "indep_twin_refine")
    assert indep["verdict"] == "pass"
    assert indep["slack"]["class2_lower"] == 0.0  # 12 = 2n - |N|: tight


def test_verify_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "verify", "--gen", "path:8", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    g6 = records[0]["graph6"]
    code, out2, _ = run_cli(capsys, "verify", "--g6", g6, "--format", "json")
    assert code == 0
    again = [json.loads(line) for line in out2.splitlines()]
    assert [(r["check_id"], r["verdict"]) for r in again] == \
           [(r["check_id"], r["verdict"]) for r in records]


def test_exit_status_contract(tmp_path, capsys):
    # parse failure -> 2
    code, _, err = run_cli(capsys, "analyze", "--g6", "Bwx")
    assert code == 2 and "error:" in err
    # disconnected input -> 2
    code, _, err = run_cli(capsys, "analyze", "--g6", "A?")
    assert code == 2 and "connected" in err
    # unknown generator -> 2
    code, _, err = run_cli(capsys, "verify", "--gen", "petersen:10")
    assert code == 2
    # missing fixture dir -> 2
    code, _, err = run_cli(capsys, "corpus", "--n", "7", "--corpus-dir", "/nonexistent")
    assert code == 2
    # unwritable --out -> 2, not a traceback
    target = tmp_path / "missing" / "x.txt"
    code, _, err = run_cli(capsys, "verify", "--gen", "path:4", "--out", str(target))
    assert code == 2 and err.startswith("error: cannot write")


def test_usage_error_exits_2(capsys):
    for argv in (["analyze"],  # no input source
                 ["analyze", "--gen", "path:4", "--tol", "1e-9"],  # removed flag
                 ["analyze", "--gen", "path:4", "--int-tol", "0"],
                 ["verify", "--gen", "K:3,3,1", "--int-tol", "nan"],  # NaN fails every comparison
                 ["verify", "--gen", "K:3,3,1", "--int-tol", "inf"],
                 ["tables", "--coloring", "max-l1"]):  # tables has one coloring
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_corpus_n5(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--n", "5")
    assert code == 0
    assert "21 connected graphs" in out
    assert "RESULT: 0 checker failure(s)" in out


def test_corpus_n6_audit(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--n", "6", "--audit-extremal")
    assert code == 0
    for chi, expect in ((2, 9), (3, 8), (4, 8), (5, 8)):
        assert f"extremal chi={chi}: min dL1 = {expect} (expected {expect})" in out


def test_corpus_jobs_match_serial(capsys):
    code, serial, _ = run_cli(capsys, "corpus", "--n", "5", "--format", "json")
    code2, parallel, _ = run_cli(capsys, "corpus", "--n", "5", "--format", "json", "--jobs", "2")
    assert code == code2 == 0
    assert serial == parallel


def test_corpus_audit_analyzes_each_graph_once(monkeypatch, capsys):
    calls = []
    real = verify.analyze

    def counted(g, *args, **kwargs):
        calls.append(g)
        return real(g, *args, **kwargs)

    # the corpus pass looks analyze up in cli; nothing may reach verify.analyze
    # around it, e.g. a second pass for the audit
    monkeypatch.setattr(cli, "analyze", counted)
    monkeypatch.setattr(verify, "analyze", counted)
    code, out, _ = run_cli(capsys, "corpus", "--n", "6", "--audit-extremal")
    assert code == 0
    assert "112 connected graphs" in out
    assert len(calls) == 112


def test_corpus_audit_jobs_match_serial(capsys):
    argv = ("corpus", "--n", "7", "--audit-extremal", "--format", "json")
    code, serial, _ = run_cli(capsys, *argv)
    code2, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code == code2 == 0
    assert serial and serial == parallel


def test_corpus_jobs_clamped_to_usable_cpus(monkeypatch, capsys):
    code, serial, _ = run_cli(capsys, "corpus", "--n", "5", "--format", "json")
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: Context())
    code2, clamped, _ = run_cli(capsys, "corpus", "--n", "5", "--format", "json",
                                "--jobs", "100000")
    assert code == code2 == 0
    assert clamped == serial
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert sizes == ([cpus] if cpus > 1 else [])  # one CPU runs serially


def test_corpus_csv_output(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "corpus", "--n", "4", "--format", "csv",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("graph6,n,m,chi,b_chi,check_id")
    assert len(lines) == 1 + 6 * 9  # 6 graphs x 9 checks


def test_tables_all_match(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    assert "RESULT: all cells match" in out
    assert "38.446, 28.000, 25.016, 22.000, 19.787, 18.000" in out
    assert "35.472, 35.472, 26.528, 26.528, 26.000, 25.000" in out


def test_tables_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 9
    assert all(not r["mismatches"] for r in rows)
    row = next(r for r in rows if r["label"] == "K_{3,3,3,2}")
    assert row["m_ge_b"] == 6
    assert [round(v, 6) for v in row["eigs"]] == [14.0] * 6


def test_tables_csv(capsys):
    code, out, _ = run_cli(capsys, "tables", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ref = resources.files("distlap.data").joinpath("tables_expected.csv")
    with ref.open() as fh:
        reader = csv.DictReader(fh)
        expected = list(reader)
    assert list(rows[0]) == reader.fieldnames
    assert [r["label"] for r in rows] == [label for _, label, _ in TABLE_GRAPHS]
    for got, want in zip(rows, expected, strict=True):
        for key in ("table", "label", "n", "chi", "diam", "b_chi", "m_ge_b"):
            assert got[key] == want[key], (got["label"], key)
        assert [round(float(got[f"eig{i}"]), 3) for i in range(1, 7)] == \
               [float(want[f"eig{i}"]) for i in range(1, 7)]


def test_analyze_csv_is_valid_csv(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--gen", "K:3,3,1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    fields = dict(rows[1:])
    assert json.loads(fields["class_sizes"]) == [3, 3, 1]
    assert fields["chi"] == "3"


def test_display_rounding_does_not_affect_verdicts(capsys):
    # coarse display format in pretty mode, exact verdicts in json mode
    code, pretty, _ = run_cli(capsys, "verify", "--gen", "comp_S62")
    code2, jsonl, _ = run_cli(capsys, "verify", "--gen", "comp_S62", "--format", "json")
    assert code == code2 == 0
    verdicts = {r["check_id"]: r["verdict"] for r in map(json.loads, jsonl.splitlines())}
    for cid, verdict in verdicts.items():
        if verdict == "pass":
            assert f"{cid}" in pretty
