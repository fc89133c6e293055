"""Command-line front end: analyze, verify, corpus sweeps, and table reproduction.

Exit status contract: 0 = everything passed, 1 = at least one checker failure
or table mismatch, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import io
import json
import os
import sys
from importlib import resources
from pathlib import Path

from distlap import graphs
from distlap.eigen import cluster_values
from distlap.verify import (
    CHECKS,
    CSV_HEADER,
    analyze,
    audit_extremal,
    report_csv,
    report_jsonl,
    run_checks,
    sweep,
)

USAGE_ERROR = 2


class InputError(Exception):
    pass


def _parse_gen_spec(spec: str) -> graphs.Graph:
    """Generator mini-language: K:4,4,2 path:8 cycle:10 complete:5 dstar:6,2
    G_ind G_clq comp_S62."""
    name, _, argstr = spec.partition(":")
    try:
        params = tuple(map(graphs._decimal, argstr.split(","))) if argstr else ()
    except ValueError as exc:
        raise InputError(f"bad generator parameters in {spec!r}") from exc
    try:
        if name == "K":
            return graphs.gen_complete_multipartite(params)
        alias = {"dstar": "double_star"}.get(name, name)
        return graphs.gen_named(alias, *params)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _analyze_input(args):
    """The analysis of the graph named by --g6, --edges or --gen (argparse
    requires exactly one), in the --coloring mode."""
    if args.g6 is not None:
        try:
            g = graphs.parse_graph6(args.g6)
        except ValueError as exc:
            raise InputError(f"bad graph6 input: {exc}") from exc
    elif args.edges is not None:
        path = Path(args.edges)
        if not path.is_file():
            raise InputError(f"edge-list file not found: {path}")
        try:
            g = graphs.parse_edge_list(path.read_text())
        except ValueError as exc:
            raise InputError(f"bad edge list: {exc}") from exc
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    else:
        g = _parse_gen_spec(args.gen)
    try:
        return analyze(g, coloring_mode=args.coloring)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _count(text: str) -> int:
    """graphs._decimal for argparse, which names the option in a refusal."""
    try:
        return graphs._decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_coloring_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coloring", choices=("default", "max-l1"), default="default")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def _write_error(name: str, exc: OSError) -> InputError:
    return InputError(f"cannot write {name}: {exc.strerror or exc}")


def _drop_stdout() -> None:
    """Point the standard output descriptor at the null device, so that what
    a failed write left in stdout's buffer is flushed there at exit instead
    of failing again (a traceback-free exit, not status 120)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@contextlib.contextmanager
def _output(out: str | None):
    """The write function of the stream a report goes to: stdout's, or that
    of the file `out`. The file is opened on entry, so that an unwritable
    path fails before any work is done. Stdout is flushed and the file is
    closed on leaving, and an error writing, flushing or closing either (a
    full disk, a closed pipe) is an InputError naming the stream."""
    name = out or "standard output"
    try:
        fh = open(out, "w") if out else sys.stdout
    except OSError as exc:
        raise _write_error(name, exc) from exc
    if fh is None:  # sys.stdout is None when the process starts with descriptor 1 closed
        raise InputError("cannot write standard output: it is closed")
    finish = fh.close if out else fh.flush

    def failed(exc: OSError) -> InputError:
        if not out:
            _drop_stdout()
        return _write_error(name, exc)

    def write(text: str) -> None:
        try:
            fh.write(text)
        except OSError as exc:
            raise failed(exc) from exc

    try:
        yield write
    except BaseException:
        if out:
            with contextlib.suppress(OSError):  # the error already raised is the one to report
                fh.close()
        raise
    try:
        finish()
    except OSError as exc:
        raise failed(exc) from exc


def _emit(text: str, out: str | None) -> None:
    with _output(out) as write:
        write(text)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _fmt3(v: float) -> str:
    """3-decimal display that never shows a negative zero."""
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _analysis_record(a) -> dict:
    return {
        "graph6": a.graph6,
        "n": a.n,
        "m": a.m,
        "diameter": a.diameter,
        "chi": a.chi,
        "class_sizes": list(a.coloring.sizes),
        "b_chi": a.b_chi,
        "spectrum": a.values,
        "clusters": [[float(v), int(k)] for v, k in cluster_values(a.values)],
        "mu_below_b_chi": a.mu_below_b,
        "m_ge_b_chi": a.m_ge_b,
        "wiener": a.wiener,
        "complement_components": a.complement_components,
        "universal_vertices": a.universal_vertices,
        "twin_classes": [
            {"kind": t.kind, "members": list(t.members), "external": list(t.external),
             "transmission": t.transmission, "forced_value": t.forced_value,
             "forced_mult": t.forced_mult}
            for t in a.twins
        ],
    }


def cmd_analyze(args) -> int:
    rec = _analysis_record(_analyze_input(args))
    if args.format == "json":
        _emit(json.dumps(rec, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        rows = [(k, json.dumps(v) if isinstance(v, (list, dict)) else v)
                for k, v in rec.items()]
        _emit(_csv_text([("key", "value"), *rows]), args.out)
    else:
        lines = [
            f"graph6      {rec['graph6']}",
            f"n, m        {rec['n']}, {rec['m']}",
            f"diameter    {rec['diameter']}",
            f"chi         {rec['chi']}  classes {rec['class_sizes']}",
            f"b_chi       {rec['b_chi']}",
            "spectrum    " + ", ".join(_fmt3(v) for v in rec["spectrum"]),
            f"mu[0,b)     {rec['mu_below_b_chi']}    m[b,dL1] {rec['m_ge_b_chi']}",
            f"wiener      {rec['wiener']}",
            f"complement components  {rec['complement_components']}",
            f"universal vertices     {rec['universal_vertices']}",
        ]
        if rec["twin_classes"]:
            for t in rec["twin_classes"]:
                lines.append(
                    f"twin ({t['kind']:11s}) members {t['members']} external {t['external']}"
                    f" forces {t['forced_value']} x{t['forced_mult']}")
        else:
            lines.append("twin classes           none")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _record_encoder(fmt: str):
    """The function encoding one report's records in format fmt, None for
    pretty. CSV rows come without CSV_HEADER, which cmd_verify and
    cmd_corpus write once. The names are resolved at each call, so that a
    function a test or a tracer has since replaced is the one returned."""
    return {"json": report_jsonl, "csv": report_csv}.get(fmt)


def cmd_verify(args) -> int:
    a = _analyze_input(args)
    report = run_checks(a)
    encode = _record_encoder(args.format)
    if encode:
        header = CSV_HEADER if args.format == "csv" else ""
        _emit(header + encode(report), args.out)
    else:
        lines = [f"{a.graph6}  n={a.n} m={a.m} chi={a.chi} b_chi={a.b_chi}"]
        for r in report.results:
            if r.verdict == "not-applicable":
                lines.append(f"  {r.check_id:22s} not-applicable  ({r.reason})")
            else:
                slack = "  ".join(f"{k}={v:+.6g}" for k, v in r.slack.items())
                lines.append(f"  {r.check_id:22s} {r.verdict:14s} {slack}")
        lines.append("RESULT: " + ("all checks passed" if report.ok
                                   else f"{len(report.failures)} check(s) FAILED"))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


def _corpus_item(fmt: str, audit: bool, report) -> tuple:
    """What a corpus sweep keeps of one graph's report: its records in format
    fmt (CSV without the header, "" for pretty), its verdicts in CHECKS order
    and, if `audit`, its GraphSummary (else None)."""
    encode = _record_encoder(fmt)
    return (encode(report) if encode else "", report.verdicts,
            report.summary if audit else None)


def cmd_corpus(args) -> int:
    try:
        corpus = list(graphs.enumerate_connected(args.n, args.corpus_dir))
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from exc
    outcomes = collections.Counter()  # graphs per verdict tuple
    summaries = []
    audits = []
    with _output(args.out) as write:
        if args.format == "csv":
            write(CSV_HEADER)
        # a ValueError is a fixture file at fault: a disconnected graph, or
        # (for the audit) no graph of some chromatic number
        try:
            each = functools.partial(_corpus_item, args.format, args.audit_extremal)
            for text, verdicts, summary in sweep(corpus, each, args.coloring, args.jobs):
                write(text)
                outcomes[verdicts] += 1
                if args.audit_extremal:
                    summaries.append(summary)
            if args.audit_extremal:
                for chi in range(2, args.n):
                    audits.append(audit_extremal(args.n, chi, analyses=summaries))
        except ValueError as exc:
            raise InputError(str(exc)) from exc

        tallies = {cid: {"pass": 0, "fail": 0, "not-applicable": 0} for cid, _ in CHECKS}
        for verdicts, count in outcomes.items():
            for (cid, _), verdict in zip(CHECKS, verdicts):
                tallies[cid][verdict] += count
        n_fail = sum(t["fail"] for t in tallies.values())
        if args.format == "pretty":
            write(_corpus_summary(args.n, len(corpus), tallies, audits, n_fail))

    audits_ok = all(a.ok for a in audits)
    return 0 if n_fail == 0 and audits_ok else 1


def _corpus_summary(n: int, n_graphs: int, tallies: dict, audits: list, n_fail: int) -> str:
    """The pretty corpus report: verdict tallies per check, then the audits."""
    lines = [f"corpus n={n}: {n_graphs} connected graphs"]
    lines.append(f"{'check':24s} {'pass':>6s} {'fail':>6s} {'n/a':>6s}")
    for cid, t in tallies.items():
        lines.append(f"{cid:24s} {t['pass']:6d} {t['fail']:6d} {t['not-applicable']:6d}")
    for audit in audits:
        status = "ok" if audit.ok else "FAILED"
        lines.append(
            f"extremal chi={audit.chi}: min dL1 = {audit.observed_min:.6g} "
            f"(expected {audit.expected_min}) over {audit.graphs_considered} graphs, "
            f"{len(audit.minimizers)} minimizer(s) [{status}]")
        for fail in audit.failures:
            lines.append(f"  FAILURE: {fail}")
    findings = [f for audit in audits for f in audit.findings]
    if findings:
        lines.append("findings (balanced-parts sub-claim violations, reported only):")
        for f in findings:
            lines.append(f"  {f['graph6']} parts={f['parts']}: {f['note']}")
    lines.append(f"RESULT: {n_fail} checker failure(s)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------

TABLE_GRAPHS = (
    # (table, label, generator spec)
    (1, "K_{2,2,1,1,1}", "K:2,2,1,1,1"),
    (1, "comp(S_{6,2})", "comp_S62"),
    (1, "P_8", "path:8"),
    (1, "K_{4,4,2}", "K:4,4,2"),
    (2, "K_{3,3,3,2}", "K:3,3,3,2"),
    (2, "C_10", "cycle:10"),
    (2, "K_{3,5}", "K:3,5"),
    (2, "G_ind", "G_ind"),
    (2, "G_clq", "G_clq"),
)


INTEGER_CELLS = ("n", "chi", "diam", "b_chi", "m_ge_b")
# the columns of data/tables_expected.csv
TABLE_COLUMNS = ("table", "label", *INTEGER_CELLS, *(f"eig{i}" for i in range(1, 7)))


def expected_table_rows() -> dict[str, dict]:
    """Committed expected values for both numeric tables, keyed by row label."""
    ref = resources.files("distlap.data").joinpath("tables_expected.csv")
    rows = {}
    with ref.open() as fh:
        for rec in csv.DictReader(fh):
            rows[rec["label"]] = {
                "table": int(rec["table"]),
                **{k: int(rec[k]) for k in INTEGER_CELLS},
                "eigs": [float(rec[f"eig{i}"]) for i in range(1, 7)],
            }
    return rows


def computed_table_row(spec: str) -> dict:
    a = analyze(_parse_gen_spec(spec))
    return {
        "n": a.n,
        "chi": a.chi,
        "diam": a.diameter,
        "b_chi": a.b_chi,
        "m_ge_b": a.m_ge_b,
        "eigs": a.values[:6],
    }


def compare_table_row(computed: dict, expected: dict) -> list[str]:
    """Cells where the computed row disagrees with the committed expected row.

    Eigenvalue cells match when the computed value rounds to the printed
    3-decimal cell; the remaining cells are integers and must match exactly.
    """
    bad = []
    for key in INTEGER_CELLS:
        if computed[key] != expected[key]:
            bad.append(f"{key}: computed {computed[key]} != expected {expected[key]}")
    for i, (got, want) in enumerate(zip(computed["eigs"], expected["eigs"]), start=1):
        if _fmt3(got) != _fmt3(want):
            bad.append(f"eig{i}: computed {got:.6f} does not round to {want:.3f}")
    return bad


def cmd_tables(args) -> int:
    expected = expected_table_rows()
    mismatches = 0
    out_lines = []
    rows_json = []
    for table in (1, 2):
        out_lines.append(f"Table {table}")
        out_lines.append(f"{'graph':16s} {'n':>3s} {'chi':>4s} {'diam':>5s} {'b':>4s} "
                         f"{'m>=b':>5s}  first six eigenvalues")
        for tbl, label, spec in TABLE_GRAPHS:
            if tbl != table:
                continue
            row = computed_table_row(spec)
            bad = compare_table_row(row, expected[label])
            mismatches += len(bad)
            eigs = ", ".join(_fmt3(v) for v in row["eigs"])
            flag = "" if not bad else "   MISMATCH: " + "; ".join(bad)
            out_lines.append(f"{label:16s} {row['n']:3d} {row['chi']:4d} {row['diam']:5d} "
                             f"{row['b_chi']:4d} {row['m_ge_b']:5d}  {eigs}{flag}")
            rows_json.append({"table": tbl, "label": label, **row, "mismatches": bad})
        out_lines.append("")
    out_lines.append("RESULT: " + ("all cells match" if mismatches == 0
                                   else f"{mismatches} cell(s) disagree"))
    if args.format == "json":
        _emit("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows_json), args.out)
    elif args.format == "csv":
        rows = [(r["table"], r["label"], *(r[k] for k in INTEGER_CELLS), *r["eigs"])
                for r in rows_json]
        _emit(_csv_text([TABLE_COLUMNS, *rows]), args.out)
    else:
        _emit("\n".join(out_lines) + "\n", args.out)
    return 0 if mismatches == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    main() call. It names the subcommand (`command`) but holds no function:
    main looks cmd_<command> up when it runs, so the shared parser never
    pins a function object that a test or a tracer has since replaced."""
    parser = argparse.ArgumentParser(
        prog="distlap",
        description="Distance Laplacian spectra, chromatic data, and bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("analyze", "print the full analysis of one connected graph"),
                       ("verify", "run every checker against one connected graph")):
        p = sub.add_parser(name, help=text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--g6", help="graph6 record")
        src.add_argument("--edges", help="path to an edge-list file")
        src.add_argument("--gen", help="generator spec, e.g. K:4,4,2 or path:8")
        _add_coloring_arg(p)
        _add_common_args(p)

    p = sub.add_parser(
        "corpus", help="run every checker over all connected graphs on n vertices",
        description="Run every checker over all connected graphs on n vertices. Records "
                    "are written batch by batch as the pass goes; a pass stopped by an "
                    "input error (exit 2) may leave a partial records file behind.")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--corpus-dir", help="directory holding connected{n}.g6 fixture "
                                        "files (n = 7 and 8 only)")
    p.add_argument("--jobs", type=_count, default=1,
                   help="worker processes, at most the CPUs this process may use")
    p.add_argument("--audit-extremal", action="store_true",
                   help="also audit the minimum-dL1 theorem for every chi")
    _add_coloring_arg(p)
    _add_common_args(p)

    p = sub.add_parser("tables", help="recompute both numeric tables and diff them "
                                      "against the committed expected values")
    _add_common_args(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
