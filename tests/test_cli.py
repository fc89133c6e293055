import csv
import errno
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import distlap
from distlap import cli, graphs, verify
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
    assert "twin1_lower=+3" in out  # forced 14 vs 2n-s-|N| = 11


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
    assert indep["slack"]["twin1_lower"] == 0.0  # 12 = 2n - |N|: tight


# verify's pretty report of two table graphs, pinned whole: each check prints
# its claims in the order it makes them. Every eigenvalue slack prints at .6g
# and lies far from zero, and the rest are exact integer counts, so no BLAS
# build can move the text.
PRETTY_VERIFY = {
    "G_ind": (
        'F}rC?  n=7 m=10 chi=3 b_chi=10\n'
        '  ah_bound               pass           dl1_minus_b_chi=+3\n'
        '  color_majorization     pass           block_1=+1  block_2=+3\n'
        '  many_above_b_chi       pass           count_ge_b_minus_ell1m1=+1  count_ge_b_minus_ceilm1=+2\n'
        '  k_range                pass           k_range=+2  second_eigenvalue=+2\n'
        '  interval_sandwich      pass           count_minus_ell1m1=+1  count_minus_3=+1  count_minus_complement_bound=-1  count_minus_universal_bound=-1\n'
        '  n_multiplicity         pass           mu_at_n_minus_cm1=+0\n'
        '  clique_twin_refine     not-applicable  (no clique twin class)\n'
        '  indep_twin_refine      pass           twin1_mult=+0  twin1_lower=+0  twin1_b_chi=+2  twin1_interval_count=+1\n'
        '  diameter_refine        pass           mu_below_minus_bound=-2  counting_identity=+0\n'
        'RESULT: all checks passed\n'
    ),
    "comp_S62": (
        'GJ\\z|{  n=8 m=21 chi=6 b_chi=10\n'
        '  ah_bound               pass           dl1_minus_b_chi=+6.42864\n'
        '  color_majorization     pass           block_1=+6.42864  block_2=+0.921622\n'
        '  many_above_b_chi       pass           count_ge_b_minus_ell1m1=+1  count_ge_b_minus_ceilm1=+1\n'
        '  k_range                pass           second_eigenvalue=+0.921622\n'
        '  interval_sandwich      pass           count_minus_ell1m1=+1  count_minus_complement_bound=-5  count_minus_universal_bound=-5\n'
        '  n_multiplicity         pass           mu_at_n_minus_cm1=+0\n'
        '  clique_twin_refine     pass           twin1_mult=+0  twin1_lower=+0\n'
        '  indep_twin_refine      not-applicable  (no independent twin class)\n'
        '  diameter_refine        pass           mu_below_minus_bound=-1  mu_below_minus_diam_bound=+0  counting_identity=+0\n'
        'RESULT: all checks passed\n'
    ),
}


@pytest.mark.parametrize("spec", sorted(PRETTY_VERIFY))
def test_verify_pretty_keeps_each_checks_claim_order(capsys, spec):
    code, out, _ = run_cli(capsys, "verify", "--gen", spec)
    assert code == 0
    assert out == PRETTY_VERIFY[spec]


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


def test_verify_prints_long_form_graph6_in_short_form(capsys):
    # "~??G" is the long size form of n = 8, which n <= 62 does not need
    short = graphs.to_graph6(graphs.gen_path(8))
    code, out, _ = run_cli(capsys, "verify", "--g6", "~??G" + short[1:], "--format", "json")
    assert code == 0
    assert {json.loads(line)["graph6"] for line in out.splitlines()} == {short}


def test_exit_status_contract(tmp_path, capsys):
    # parse failure -> 2
    code, _, err = run_cli(capsys, "analyze", "--g6", "Bwx")
    assert code == 2 and "error:" in err
    # disconnected input -> 2
    code, _, err = run_cli(capsys, "analyze", "--g6", "A?")
    assert code == 2 and "connected" in err
    # unknown generator or bad generator parameters -> 2
    code, _, err = run_cli(capsys, "verify", "--gen", "petersen:10")
    assert code == 2
    # a parameter that is no ASCII decimal numeral, though int() takes the last four
    for spec in ("path:x", "path:+8", "path:\u0668", "path:1_0", "K:4, 4"):
        code, out, err = run_cli(capsys, "verify", "--gen", spec)
        assert (code, out, err) == (2, "", f"error: bad generator parameters in {spec!r}\n")
    # max-l1 mode above its guard -> 2, naming the mode
    for command in ("verify", "analyze"):
        code, out, err = run_cli(capsys, command, "--gen", "path:17", "--coloring", "max-l1")
        assert (code, out, err) == (2, "", "error: max-l1 coloring is guarded to n <= 16\n")
    # missing edge-list file -> 2
    missing = tmp_path / "none.edges"
    code, out, err = run_cli(capsys, "verify", "--edges", str(missing))
    assert (code, out, err) == (2, "", f"error: edge-list file not found: {missing}\n")
    # bad edge line -> 2, naming the line
    edges = tmp_path / "bad.edges"
    edges.write_text("3\n1 x\n")
    code, out, err = run_cli(capsys, "verify", "--edges", str(edges))
    assert (code, out, err) == (2, "", "error: bad edge list: bad edge line '1 x'\n")
    # a count int() would take but that is no ASCII decimal numeral -> 2
    edges.write_text("+3\n0 +1\n")
    code, out, err = run_cli(capsys, "verify", "--edges", str(edges))
    assert (code, out, err) == (
        2, "", "error: bad edge list: first line must be the vertex count, got '+3'\n")
    # a corpus count int() would take but that is no ASCII decimal numeral ->
    # 2, naming the option, without a traceback
    for option, value in (("--n", "+6"), ("--n", "\u0666"), ("--n", "0_6"), ("--n", " 6"),
                          ("--jobs", "+2")):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "--n", "5", option, value])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: not an ASCII decimal numeral: "
                            f"{value!r}\n"), err
    # missing fixture dir -> 2
    code, _, err = run_cli(capsys, "corpus", "--n", "7", "--corpus-dir", "/nonexistent")
    assert code == 2
    # a corpus directory for an order that has no fixture file -> 2, not ignored
    for n in ("5", "9"):
        code, out, err = run_cli(capsys, "corpus", "--n", n, "--corpus-dir", "/nonexistent")
        assert (code, out) == (2, "")
        assert err == f"error: a corpus directory applies to n = 7 and 8 only, got n={n}\n"
    # unwritable --out -> 2, not a traceback
    target = tmp_path / "missing" / "x.txt"
    code, _, err = run_cli(capsys, "verify", "--gen", "path:4", "--out", str(target))
    assert code == 2 and err.startswith("error: cannot write")


def test_unreadable_input_file_exits_2(tmp_path, monkeypatch, capsys):
    # an input file that exists but cannot be read (chmod 000 does not stop
    # root, so read_text is made to fail for the one path)
    edges = tmp_path / "g.edges"
    edges.write_text("3\n0 1\n1 2\n")
    fixture = tmp_path / "connected7.g6"
    fixture.write_text("")
    real = Path.read_text

    def read_text(self, *args, **kwargs):
        if self in (edges, fixture):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    for argv, path in ((["analyze", "--edges", str(edges)], edges),
                       (["corpus", "--n", "7", "--corpus-dir", str(tmp_path)], fixture)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {path}: {os.strerror(errno.EACCES)}\n"


def _fixture_with(tmp_path, index, g6):
    """A connected7.g6 in tmp_path: the packaged fixture with line `index` replaced."""
    lines = [graphs.to_graph6(g) for g in graphs.enumerate_connected(7)]
    lines[index] = g6
    (tmp_path / "connected7.g6").write_text("\n".join(lines) + "\n")
    return str(tmp_path)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_bad_fixture_line_exits_2(tmp_path, capsys, jobs):
    # the right line count, but one line is a disconnected graph (seven
    # isolated vertices) or a graph on 6 vertices
    for g6 in ("F????", graphs.to_graph6(graphs.gen_cycle(6))):
        corpus_dir = _fixture_with(tmp_path, 600, g6)
        code, _, err = run_cli(capsys, "corpus", "--n", "7", "--corpus-dir", corpus_dir,
                               "--format", "json", "--out", str(tmp_path / "r.jsonl"),
                               "--jobs", jobs)
        assert code == 2 and err.startswith("error:"), (g6, err)


def test_corpus_audit_on_fixture_missing_a_chromatic_number_exits_2(tmp_path, capsys):
    # the right line count, but every line is the same graph, so the audit
    # finds no graph of most chromatic numbers
    (tmp_path / "connected7.g6").write_text("F??Fw\n" * 853)
    code, _, err = run_cli(capsys, "corpus", "--n", "7", "--corpus-dir", str(tmp_path),
                           "--audit-extremal")
    assert code == 2
    assert err == "error: corpus has no connected graph with n=7, chi=3\n"


def test_corpus_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    calls = []
    real = verify.analyze_many
    monkeypatch.setattr(verify, "analyze_many", lambda gs, *a: calls.extend(gs) or real(gs, *a))
    code, _, err = run_cli(capsys, "corpus", "--n", "7",
                           "--out", str(tmp_path / "missing" / "r.jsonl"))
    assert code == 2 and err.startswith("error: cannot write")
    assert calls == []


def test_corpus_streams_records(tmp_path, monkeypatch):
    # records are written batch by batch: with small batches the pass never
    # holds more than a fraction of the file it writes
    monkeypatch.setattr(verify, "BATCH", 16)
    out = tmp_path / "r.jsonl"
    argv = ["corpus", "--n", "7", "--format", "json", "--out", str(out)]
    main(argv)  # one-time set-up (parser, fixture resources) is not measured
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    size = out.stat().st_size
    assert size > 1_000_000
    assert peak < size / 2, (peak, size)


def _env_with_distlap() -> dict[str, str]:
    """The environment for a child interpreter that imports this distlap."""
    src = os.path.dirname(os.path.dirname(distlap.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


# a sparse 37-vertex graph (88 edges, maximum degree 9) with a clique of 6
# where the greedy clique has 5: a search for 5 colors alone did not finish.
# Its graph6 text holds three backticks
SHORT_GREEDY_CLIQUE_37 = ("dGA?cO??__K??C_kAP??GW@?G??[A???K@_?@??CQ???K?CCWGHW@A?PG?@?B?@KAL????`"
                          "??KQ??P?O?A??OG_??`?O???CaC??K?`?G?A?_O??")


def test_verify_finishes_where_the_greedy_clique_is_short():
    # the whole process, start-up included, within 30 s (about 0.3 s here)
    proc = subprocess.run([sys.executable, "-m", "distlap", "verify", "--g6",
                           SHORT_GREEDY_CLIQUE_37], capture_output=True, text=True,
                          env=_env_with_distlap(), timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert " n=37 m=88 chi=6 " in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["verify", "--gen", "path:4"],
    ["analyze", "--gen", "path:4"],
    ["tables"],
    ["corpus", "--n", "5", "--format", "json"],
])
def test_write_error_on_out_exits_2(capsys, argv):
    # /dev/full opens, then fails every write with "No space left on device"
    code, _, err = run_cli(capsys, *argv, "--out", "/dev/full")
    assert code == 2
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1


class _FullStdout:
    """A standard output on a full disk: `fail_on` ("write" or "flush") raises
    ENOSPC, as a buffered stream does on its first write or on its flush."""

    def __init__(self, fail_on: str):
        self.fail_on = fail_on

    def write(self, text: str) -> int:
        if self.fail_on == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def flush(self) -> None:
        if self.fail_on == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fail_on", ["write", "flush", "closed"])
@pytest.mark.parametrize("argv", [
    ["verify", "--gen", "path:4"],
    ["verify", "--gen", "path:4", "--format", "csv"],
    ["corpus", "--n", "5"],
    ["corpus", "--n", "6", "--format", "json"],
])
def test_write_error_on_stdout_exits_2(monkeypatch, capsys, argv, fail_on):
    # a closed descriptor 1 leaves Python with sys.stdout = None
    monkeypatch.setattr(sys, "stdout", None if fail_on == "closed" else _FullStdout(fail_on))
    code = main(argv)
    assert code == 2
    why = "it is closed" if fail_on == "closed" else os.strerror(errno.ENOSPC)
    assert capsys.readouterr().err == f"error: cannot write standard output: {why}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["verify", "--gen", "path:4"],
    ["corpus", "--n", "6", "--format", "json"],
])
def test_write_error_on_stdout_exits_2_at_interpreter_exit(argv):
    # a real process with a buffered stdout (Python's default), so the
    # exit-time flush of what a failed write left buffered is covered too: it
    # must neither print "Exception ignored" nor turn the status into 120
    env = _env_with_distlap()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "distlap", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: No space left on device\n"


def test_usage_error_exits_2(capsys):
    for argv in (["analyze"],  # no input source
                 ["analyze", "--gen", "path:4", "--tol", "1e-9"],  # removed flag
                 ["analyze", "--gen", "path:4", "--int-tol", "1e-6"],  # removed flag
                 ["verify", "--gen", "K:3,3,1", "--int-tol", "1e-15"],
                 ["corpus", "--n", "3", "--int-tol", "1e-6"],
                 ["tables", "--int-tol", "1e-6"],
                 ["tables", "--coloring", "max-l1"],  # tables has one coloring
                 ["corpus", "--n", "5", "--jobs", "0"]):
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


# SHA-256 over every line of `corpus --n N --format json`, in order, of the repr
# of (graph6, n, m, chi, b_chi, check_id, applicable, verdict, sorted slack
# labels, witness): every field but the slack values, which come from LAPACK,
# so no BLAS build can move it. A record with a wrong shape or verdict changes it.
RECORD_SKELETON_SHA256 = {
    (7, "default"): "e2e8161f90db56c2eac80e9ac9bf2d6f293da96f9b6fd99d03922d52e2abb795",
    (7, "max-l1"): "a144910334f1a8df1d8fdb3b6d0e97a9cf0e238dbb25b29fa69de2c4379075e2",
    (8, "default"): "7d404c4a99a52d3ed26658801fea7d5b99099e98f2a6068aac07d4ca9d5cccc7",
    (8, "max-l1"): "cbaf2564cef3a042866352c331a1c5fd8ce7e282510fd506125a14f3ef1708df",
}


@pytest.mark.parametrize("n, mode", [
    pytest.param(7, "default", id="default"),
    pytest.param(7, "max-l1", id="max-l1"),
    pytest.param(8, "default", id="n8-default", marks=pytest.mark.corpus8),
    pytest.param(8, "max-l1", id="n8-max-l1", marks=pytest.mark.corpus8),
])
def test_corpus_record_skeleton_is_pinned(corpus_run, n, mode):
    # --audit-extremal leaves the records as they are; with it, the run is
    # the serial side of test_corpus_audit_jobs_match_serial's json case
    code, out = corpus_run(n, mode, "json", audit=True)
    assert code == 0
    digest = hashlib.sha256()
    for line in out.read_text().splitlines():
        r = json.loads(line)
        digest.update(repr((r["graph6"], r["n"], r["m"], r["chi"], r["b_chi"], r["check_id"],
                            r["applicable"], r["verdict"], sorted(r["slack"]),
                            r["witness"])).encode())
    assert digest.hexdigest() == RECORD_SKELETON_SHA256[n, mode]


def test_corpus_jobs_match_serial(capsys):
    for fmt in ("json", "csv"):
        code, serial, _ = run_cli(capsys, "corpus", "--n", "5", "--format", fmt)
        code2, parallel, _ = run_cli(capsys, "corpus", "--n", "5", "--format", fmt,
                                     "--jobs", "2")
        assert code == code2 == 0
        assert serial == parallel, fmt


def test_corpus_audit_analyzes_each_graph_once(monkeypatch, capsys):
    calls = []
    real = verify.analyze_many

    def counted(graphs, *args, **kwargs):
        calls.extend(graphs)
        return real(graphs, *args, **kwargs)

    # a second pass for the audit would show in either way a graph is
    # analyzed: in a stack (the sweep's verify.analyze_many) or alone
    # (analyze, wherever it is looked up). The claim table analyzes alone
    # the first graph of each shape it has not met, so a first pass meets
    # every shape
    run_cli(capsys, "corpus", "--n", "6", "--audit-extremal")
    monkeypatch.setattr(verify, "analyze_many", counted)
    real_one = verify.analyze
    for module in (verify, cli):
        monkeypatch.setattr(module, "analyze", lambda g, *args, **kwargs:
                            calls.append(g) or real_one(g, *args, **kwargs))
    code, out, _ = run_cli(capsys, "corpus", "--n", "6", "--audit-extremal")
    assert code == 0
    assert "112 connected graphs" in out
    assert len(calls) == 112
    assert len(set(calls)) == 112


def test_corpus_audit_builds_no_analysis_row_for_a_passing_graph(monkeypatch, capsys):
    # once the claim table knows every shape, a corpus pass with the audit
    # writes every record and head from the stacks' columns: no graph is
    # analyzed alone, which is the only way the table builds a GraphAnalysis
    argv = ("corpus", "--n", "6", "--audit-extremal", "--format", "json")
    monkeypatch.setattr(verify, "_SHAPES", {})
    built = []
    real = verify.analyze
    monkeypatch.setattr(verify, "analyze", lambda g, *args, **kwargs:
                        built.append(g) or real(g, *args, **kwargs))
    code, expected, _ = run_cli(capsys, *argv)  # meets every shape
    assert code == 0 and built  # the first graph of each shape is analyzed alone
    built.clear()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == expected
    assert built == []


def test_parser_is_built_once_and_dispatches_by_name(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    code, _, _ = run_cli(capsys, "verify", "--gen", "path:4")
    assert code == 0
    # the shared parser, built before the patch, must still reach the new function
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.gen) or 0)
    code, _, _ = run_cli(capsys, "verify", "--gen", "path:5")
    assert code == 0 and seen == ["path:5"]


@pytest.mark.parametrize("n, mode, fmt", [
    *(pytest.param(7, "default", fmt, id=fmt) for fmt in ("pretty", "json", "csv")),
    pytest.param(8, "default", "pretty", id="n8-pretty", marks=pytest.mark.corpus8),
    *(pytest.param(8, mode, "json", id=f"n8-json-{mode}", marks=pytest.mark.corpus8)
      for mode in ("default", "max-l1")),
])
def test_corpus_audit_jobs_match_serial(corpus_run, n, mode, fmt):
    # pretty output holds the tallies and the audits, json and csv the records
    code, serial = corpus_run(n, mode, fmt, audit=True)
    code2, parallel = corpus_run(n, mode, fmt, audit=True, jobs=2)
    assert code == code2 == 0
    serial = serial.read_text()
    assert serial and serial == parallel.read_text()


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


def test_cli_import_leaves_multiprocessing_out():
    # only a pooled sweep needs it, and importing it slows every start
    code = "import sys, distlap.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_with_distlap(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


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


def _expected_rows_with_p8_changed():
    # P_8's row with one integer cell and one eigenvalue cell off
    rows = cli.expected_table_rows()
    p8 = rows["P_8"]
    rows["P_8"] = {**p8, "chi": p8["chi"] + 1, "eigs": [p8["eigs"][0] + 1, *p8["eigs"][1:]]}
    return rows


def test_compare_table_row_names_each_wrong_cell():
    computed = cli.computed_table_row("path:8")
    bad = cli.compare_table_row(computed, _expected_rows_with_p8_changed()["P_8"])
    eig1 = computed["eigs"][0]
    assert bad == ["chi: computed 2 != expected 3",
                   f"eig1: computed {eig1:.6f} does not round to {eig1 + 1:.3f}"]


def test_tables_mismatch_exits_1(monkeypatch, capsys):
    rows = _expected_rows_with_p8_changed()
    monkeypatch.setattr(cli, "expected_table_rows", lambda: rows)
    code, out, err = run_cli(capsys, "tables")
    assert (code, err) == (1, "")
    (p8,) = [line for line in out.splitlines() if line.startswith("P_8 ")]
    assert "   MISMATCH: chi: computed 2 != expected 3; eig1: computed" in p8
    assert sum("MISMATCH" in line for line in out.splitlines()) == 1
    assert out.endswith("RESULT: 2 cell(s) disagree\n")


def test_corpus_summary_prints_audit_failures():
    # P4 (Ch) ties K_{2,2} (C]) at the minimum, and is not complete multipartite
    audit = verify.audit_extremal(4, 2, [verify.Head("Ch", 4, 3, 2, 6, 6.0),
                                         verify.Head("C]", 4, 4, 2, 6, 6.0)])
    text = cli._corpus_summary(4, 2, {}, [audit], 0)
    assert ("extremal chi=2: min dL1 = 6 (expected 6) over 2 graphs, 2 minimizer(s) "
            "[FAILED]\n  FAILURE: minimizer Ch is not complete multipartite\n") in text


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
