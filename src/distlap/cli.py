"""Command-line front end: analyze, verify, corpus sweeps, and table reproduction.

Exit status contract: 0 = everything passed, 1 = at least one checker failure
or table mismatch, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import multiprocessing
import os
import sys
from importlib import resources
from pathlib import Path

from distlap import graphs
from distlap.eigen import DEFAULT_INT_TOL, cluster_values
from distlap.verify import (
    GraphSummary,
    analyze,
    audit_extremal,
    records_to_csv,
    records_to_jsonl,
    report_records,
    run_checks,
)

USAGE_ERROR = 2


class InputError(Exception):
    pass


def _parse_gen_spec(spec: str) -> graphs.Graph:
    """Generator mini-language: K:4,4,2 path:8 cycle:10 complete:5 dstar:6,2
    G_ind G_clq comp_S62."""
    name, _, argstr = spec.partition(":")
    try:
        params = tuple(int(x) for x in argstr.split(",")) if argstr else ()
    except ValueError as exc:
        raise InputError(f"bad generator parameters in {spec!r}") from exc
    try:
        if name == "K":
            return graphs.gen_complete_multipartite(params)
        alias = {"dstar": "double_star"}.get(name, name)
        return graphs.gen_named(alias, *params)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _resolve_graph(args) -> graphs.Graph:
    if args.g6 is not None:
        try:
            return graphs.parse_graph6(args.g6)
        except ValueError as exc:
            raise InputError(f"bad graph6 input: {exc}") from exc
    if args.edges is not None:
        path = Path(args.edges)
        if not path.is_file():
            raise InputError(f"edge-list file not found: {path}")
        try:
            return graphs.parse_edge_list(path.read_text())
        except ValueError as exc:
            raise InputError(f"bad edge list: {exc}") from exc
    if args.gen is not None:
        return _parse_gen_spec(args.gen)
    raise InputError("no input source given (use --g6, --edges, or --gen)")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", help="graph6 record")
    src.add_argument("--edges", help="path to an edge-list file")
    src.add_argument("--gen", help="generator spec, e.g. K:4,4,2 or path:8")


def _add_coloring_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coloring", choices=("default", "max-l1"), default="default")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--int-tol", type=float, default=DEFAULT_INT_TOL,
                   help="interval/cluster snap tolerance")
    p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


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
        "diameter": a.dd.diameter,
        "chi": a.chi,
        "class_sizes": list(a.coloring.sizes),
        "b_chi": a.b_chi,
        "spectrum": [float(v) for v in a.values],
        "clusters": [[float(v), int(k)] for v, k in cluster_values(a.values, a.int_tol)],
        "mu_below_b_chi": a.mu_below_b,
        "m_ge_b_chi": a.m_ge_b,
        "wiener": a.dd.wiener,
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
    g = _resolve_graph(args)
    try:
        a = analyze(g, int_tol=args.int_tol, coloring_mode=args.coloring)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rec = _analysis_record(a)
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


def cmd_verify(args) -> int:
    g = _resolve_graph(args)
    try:
        a = analyze(g, int_tol=args.int_tol, coloring_mode=args.coloring)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = run_checks(a)
    records = report_records(report)
    if args.format == "json":
        _emit(records_to_jsonl(records), args.out)
    elif args.format == "csv":
        _emit(records_to_csv(records), args.out)
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


def _corpus_worker(task) -> tuple[list[dict], GraphSummary]:
    g, int_tol, coloring_mode = task
    a = analyze(g, int_tol=int_tol, coloring_mode=coloring_mode)
    return report_records(run_checks(a)), a.summary


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _sweep(tasks: list, jobs: int):
    """Yield _corpus_worker's result for every task, in task order, with at
    most one worker per usable CPU."""
    jobs = min(jobs, _usable_cpus())
    if jobs == 1:
        yield from map(_corpus_worker, tasks)
        return
    # spawn, not fork: the parent may already hold BLAS threads
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        yield from pool.imap(_corpus_worker, tasks, chunksize=max(1, len(tasks) // (16 * jobs)))


def cmd_corpus(args) -> int:
    try:
        corpus = list(graphs.enumerate_connected(args.n, args.corpus_dir))
    except (ValueError, FileNotFoundError) as exc:
        raise InputError(str(exc)) from exc
    tasks = [(g, args.int_tol, args.coloring) for g in corpus]

    tallies: dict[str, dict[str, int]] = {}
    n_fail = 0
    records = []
    summaries = []
    for recs, summary in _sweep(tasks, args.jobs):
        if args.audit_extremal:
            summaries.append(summary)
        for rec in recs:
            records.append(rec)
            t = tallies.setdefault(rec["check_id"], {"pass": 0, "fail": 0, "not-applicable": 0})
            t[rec["verdict"]] += 1
            if rec["verdict"] == "fail":
                n_fail += 1

    audits = []
    if args.audit_extremal:
        for chi in range(2, args.n):
            audits.append(audit_extremal(args.n, chi, analyses=summaries, int_tol=args.int_tol))

    if args.format == "json":
        _emit(records_to_jsonl(records), args.out)
    elif args.format == "csv":
        _emit(records_to_csv(records), args.out)
    else:
        lines = [f"corpus n={args.n}: {len(corpus)} connected graphs"]
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
        _emit("\n".join(lines) + "\n", args.out)

    audits_ok = all(a.ok for a in audits)
    return 0 if n_fail == 0 and audits_ok else 1


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


def computed_table_row(spec: str, int_tol: float = DEFAULT_INT_TOL) -> dict:
    a = analyze(_parse_gen_spec(spec), int_tol=int_tol)
    return {
        "n": a.n,
        "chi": a.chi,
        "diam": a.dd.diameter,
        "b_chi": a.b_chi,
        "m_ge_b": a.m_ge_b,
        "eigs": [float(v) for v in a.values[:6]],
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
            row = computed_table_row(spec, int_tol=args.int_tol)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distlap",
        description="Distance Laplacian spectra, chromatic data, and bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (
            ("analyze", cmd_analyze, "print the full analysis of one connected graph"),
            ("verify", cmd_verify, "run every checker against one connected graph")):
        p = sub.add_parser(name, help=text)
        _add_input_args(p)
        _add_coloring_arg(p)
        _add_common_args(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("corpus", help="run every checker over all connected graphs on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--corpus-dir", help="directory holding connected{n}.g6 fixture files")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most the CPUs this process may use")
    p.add_argument("--audit-extremal", action="store_true",
                   help="also audit the minimum-dL1 theorem for every chi")
    _add_coloring_arg(p)
    _add_common_args(p)
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("tables", help="recompute both numeric tables and diff them "
                                      "against the committed expected values")
    _add_common_args(p)
    p.set_defaults(fn=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    if not (math.isfinite(args.int_tol) and args.int_tol > 0):
        parser.error("--int-tol must be positive and finite")
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
