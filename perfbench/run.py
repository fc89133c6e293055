"""distlap benchmark: one workload, one seed, one process, one closed-loop caller.

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. distlap is imported from ./src and called
through distlap.cli.main exactly as the command line calls it, serially
(one call at a time, --jobs 1). Every output is checked by oracle.py. With
--trace 0 the end-to-end metrics are printed; with --trace 1 the per-layer
metrics, from spans recorded around distlap's public functions (tracing.py).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Inputs come only from --seed.
End-to-end timings are calibrated against reference work timed alongside
them (README.md, "Calibrated timings"); their wall-clock values are printed
beside them. See
README.md beside this file for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speedprobe import SpeedProbe
from tracing import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_BUDGET_S = 170.0     # the whole run, set-up included, ends well inside 180 s
SETUP_REPEATS = 5
SETUP_REF_S = 0.15       # `import numpy` in a fresh interpreter on the reference machine
OVERHEAD_PAIRS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
PROCESS_START = time.perf_counter()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                                  # "corpus" | "verify"
    call_deadline_s: float
    n_range: tuple[int, int] = (8, 8)
    density_range: tuple[float, float] = (0.0, 0.0)
    verify_args: tuple[str, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload("corpus8-audit",
             "the paper's exhaustive audit: all 11117 connected n=8 graphs, "
             "analyzed twice (records, then extremal audit); eigen dominates",
             "corpus", call_deadline_s=150.0),
    Workload("verify-mid-maxl1",
             "interactive single-graph verify, n 10-16, density 0.15-0.8: one small "
             "eigensolve per call, max-l1 coloring and CLI parsing per call",
             "verify", call_deadline_s=30.0, n_range=(10, 16), density_range=(0.15, 0.8),
             verify_args=("--coloring", "max-l1")),
    Workload("verify-dense",
             "single-graph verify on dense graphs, n 36-44, density 0.4-0.7: exact "
             "coloring branch and bound has a heavy tail here",
             "verify", call_deadline_s=30.0, n_range=(36, 44), density_range=(0.4, 0.7)),
)}

END_TO_END = (("setup_s", "s"), ("graphs_per_s", "1/s"), ("verify_ms_p50", "ms"),
              ("verify_ms_p90", "ms"), ("peak_rss_mb", "MB"))
# per-function self times reported beside the module totals (metric-to-layer map: README.md)
TRACED_FUNCTIONS = ("eigen.eig_symmetric", "coloring.optimal_coloring",
                    "coloring.max_ell1_coloring", "verify.audit_extremal",
                    "verify.run_checks", "verify.report_records", "verify.records_to_jsonl",
                    "metric.apsp", "graphs.parse_graph6", "graphs.to_graph6",
                    "graphs.enumerate_connected")


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict[str, int]:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    caps = {}
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc()))
        except ValueError:
            want = nproc()
        caps[var] = max(1, min(want, nproc()))
        os.environ[var] = str(caps[var])
    return caps


def environment(thread_caps: dict[str, int]) -> dict:
    import numpy as np
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        # the ceiling keeps git from finding a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_commit": commit,
            "threads": thread_caps}


def spawn_import(module: str) -> float:
    """Seconds from spawning a fresh interpreter to the end of `import <module>`."""
    code = f"import {module}, time; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - t0


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times, raw and calibrated: each `import distlap.cli` is followed by
    a reference `import numpy` and scaled by SETUP_REF_S over the reference's
    time. One untimed warm-up of each first, so bytecode compilation is not
    counted."""
    spawn_import("distlap.cli")
    spawn_import("numpy")
    raw, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        t = spawn_import("distlap.cli")
        raw.append(t)
        calibrated.append(t * SETUP_REF_S / spawn_import("numpy"))
    return raw, calibrated


# ---------------------------------------------------------------------------
# one timed call into distlap
# ---------------------------------------------------------------------------

def timed_call(argv: list[str], deadline_s: float,
               probe: SpeedProbe | None = None) -> tuple[float, int | None, str]:
    """Run distlap.cli.main(argv) with a deadline; return seconds, exit code
    (None if it raised or hit the deadline) and captured stdout. Time spent in
    the speed probe's handler during the call is not counted."""
    import distlap.cli
    remaining = RUN_BUDGET_S - (time.perf_counter() - PROCESS_START)
    buf = io.StringIO()
    rc = None
    probe_spent = probe.spent if probe else 0.0
    signal.setitimer(signal.ITIMER_REAL, max(0.01, min(deadline_s, remaining)))
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = distlap.cli.main(argv)
    except (Exception, SystemExit) as exc:   # DeadlineExceeded included
        print(f"call failed: {type(exc).__name__}: {exc} ({argv[:3]}...)", file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0 - ((probe.spent if probe else 0.0) - probe_spent)
    return elapsed, rc, buf.getvalue()


class Run:
    """Counts and latencies of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct_graphs = 0
        self.latencies: list[float] = []         # untraced calls on the workload's inputs
        self.traced_latencies: list[float] = []  # calls recorded by the run's tracer
        self.traced_graphs = 0
        self.pairs: list[tuple[float, float]] = []  # (untraced, traced) seconds, same input

    def record(self, ok: bool, graphs: int) -> bool:
        self.attempted += graphs
        self.failed += 0 if ok else graphs
        return ok


def traced_call(tracer, argv: list[str], deadline_s: float):
    with tracer.installed(), tracer.span("bench.call"):
        result = timed_call(argv, deadline_s)
    tracer.abandon_open_spans()
    return result


def run_verify(w: Workload, seed: int, seconds: float, tracer, probe) -> Run:
    import oracle
    from inputs import stratified_graph
    run = Run()

    def call(g6: str, traced: bool) -> tuple[float, bool]:
        argv = ["verify", "--g6", g6, *w.verify_args, "--format", "json"]
        if traced:
            dt, rc, out = traced_call(tracer, argv, w.call_deadline_s)
        else:
            dt, rc, out = timed_call(argv, w.call_deadline_s, probe)
        try:
            ok = rc is not None
            if ok:
                oracle.check_verify_output(g6, rc, out)
        except oracle.OracleError as exc:
            print(f"wrong output: {exc}", file=sys.stderr)
            ok = False
        return dt, run.record(ok, 1)

    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        g6 = stratified_graph(seed, i, w.n_range, w.density_range)
        if tracer is None:
            dt, ok = call(g6, False)
            run.latencies.append(dt)
            run.correct_graphs += ok
        else:
            # each graph runs untraced and traced, alternating which goes
            # first, so the trace overhead is measured on the same inputs
            tracer.call = i
            dt = {t: call(g6, t)[0] for t in ((False, True) if i % 2 == 0 else (True, False))}
            run.traced_latencies.append(dt[True])
            run.traced_graphs += 1
            run.pairs.append((dt[False], dt[True]))
        i += 1
    return run


def corpus_pass(n: int, corpus: list[str], work: Path, deadline_s: float, tracer=None,
                probe=None):
    """One `corpus --n n --audit-extremal --format json` call over `corpus`,
    written as the fixture file in `work`. Returns seconds, exit code, the
    records file and the ExtremalAudit objects the CLI computed (captured
    where cmd_corpus looks audit_extremal up)."""
    import distlap.cli
    (work / f"connected{n}.g6").write_text("\n".join(corpus) + "\n")
    out = work / "records.jsonl"
    out.unlink(missing_ok=True)
    argv = ["corpus", "--n", str(n), "--corpus-dir", str(work), "--audit-extremal",
            "--format", "json", "--out", str(out)]
    audits: list = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        real_audit = distlap.cli.audit_extremal

        def capture_audit(*args, **kwargs):
            audits.append(real_audit(*args, **kwargs))
            return audits[-1]

        distlap.cli.audit_extremal = capture_audit
        try:
            with tracer.span("bench.call") if tracer else contextlib.nullcontext():
                dt, rc, _ = timed_call(argv, deadline_s, probe)
        finally:
            distlap.cli.audit_extremal = real_audit
    if tracer:
        tracer.abandon_open_spans()
    return dt, rc, out, audits


def run_corpus(w: Workload, seed: int, seconds: float, tracer, probe) -> Run:
    import oracle
    from inputs import relabeled_corpus
    references = json.loads((HERE / "reference_corpus.json").read_text())
    corpora = {n: relabeled_corpus(seed, (SRC / "distlap" / "data" / f"connected{n}.g6")
                                   .read_text().split()) for n in (7, 8)}
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run()

    def checked_pass(n: int, tr) -> tuple[float, bool]:
        dt, rc, out, audits = corpus_pass(n, corpora[n], work, w.call_deadline_s, tr,
                                          None if tr else probe)
        try:
            ok = rc is not None and out.is_file()
            if ok:
                summary = oracle.corpus_summary(rc, out, corpora[n], audits)
                oracle.compare_corpus(summary, references[str(n)])
        except oracle.OracleError as exc:
            print(f"wrong output: {exc}", file=sys.stderr)
            ok = False
        return dt, run.record(ok, len(corpora[n]))

    start = time.perf_counter()
    try:
        if tracer is None:
            while time.perf_counter() - start < seconds:
                dt, ok = checked_pass(8, None)
                run.latencies.append(dt)
                run.correct_graphs += len(corpora[8]) if ok else 0
                if time.perf_counter() - PROCESS_START > RUN_BUDGET_S / 2:
                    break   # a further pass could not finish inside the run budget
        else:
            tracer.call = 0
            run.traced_latencies.append(checked_pass(8, tracer)[0])
            run.traced_graphs = len(corpora[8])
            # an untraced n=8 pass as well would double this run, so the trace
            # overhead is measured on the n=7 corpus, untraced and traced in turn
            for k in range(OVERHEAD_PAIRS):
                dt = {t: checked_pass(7, Tracer() if t else None)[0]
                      for t in ((False, True) if k % 2 == 0 else (True, False))}
                run.pairs.append((dt[False], dt[True]))
    finally:
        for f in work.iterdir():
            f.unlink()
        work.rmdir()
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(run: Run, setup: list[float], factor: float) -> dict[str, float]:
    """The end-to-end metrics, with every timing multiplied by `factor`."""
    import numpy as np
    lat = run.latencies
    p50, p90 = np.percentile(lat, [50, 90]).tolist()
    return {
        "setup_s": statistics.median(setup),
        "graphs_per_s": run.correct_graphs / (sum(lat) * factor),
        "verify_ms_p50": 1000 * p50 * factor,
        "verify_ms_p90": 1000 * p90 * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, tracer) -> dict[str, tuple[float, str]]:
    self_s, calls = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for mod in MODULES:
        names = [k for k in self_s if k.startswith(mod + ".")]
        out[f"{mod}.self_s"] = (sum(self_s[k] for k in names), "s")
        out[f"{mod}.calls"] = (sum(calls[k] for k in names), "count")
    for fn in TRACED_FUNCTIONS:
        out[f"{fn}.self_s"] = (self_s.get(fn, 0.0), "s")
    graphs = run.traced_graphs
    out["verify.analyze.per_graph"] = (calls.get("verify.analyze", 0) / graphs, "ratio")
    traced_wall = sum(run.traced_latencies)
    out["trace.graphs"] = (graphs, "count")
    untraced, traced = (sum(x) for x in zip(*run.pairs))
    out["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    out["trace.accounted_frac"] = (sum(out[f"{m}.self_s"][0] for m in MODULES) / traced_wall,
                                   "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "distlap" / "cli.py").is_file():
        print(f"error: no distlap sources under {SRC}", file=sys.stderr)
        return 2

    caps = cap_threads()
    sys.path.insert(0, str(SRC))
    import distlap.cli
    if Path(distlap.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported distlap from {distlap.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    env = environment(caps)
    runner = run_corpus if w.kind == "corpus" else run_verify
    raw: dict[str, float] = {}
    if args.trace:
        setup_raw = []
        tracer = Tracer()
        run = runner(w, args.seed, args.seconds, tracer, None)
        metrics = per_layer(run, tracer)
        tracer.dump(OUT / f"trace-{w.name}.json",
                    {"workload": w.name, "seed": args.seed, "environment": env})
    else:
        setup_raw, setup_calibrated = measure_setup()
        with SpeedProbe() as probe:
            run = runner(w, args.seed, args.seconds, None, probe)
        units = dict(END_TO_END)
        raw = end_to_end(run, setup_raw, 1.0)
        metrics = {k: (v, units[k])
                   for k, v in end_to_end(run, setup_calibrated, probe.factor).items()}
        env["speed_factor"] = probe.factor
        env["speed_probes"] = len(probe.samples)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}"
              + (f"   (wall-clock {raw[name]:.6g})" if name in raw else ""))
    print(f"{'fail_frac':36s} {run.failed / run.attempted:14.6g} 1   "
          f"({run.failed} of {run.attempted} graphs)")
    print(f"samples: {len(run.latencies)} untraced calls, {len(run.traced_latencies)} traced, "
          f"{len(run.pairs)} overhead pairs, setup x{len(setup_raw)}")
    print("environment: " + json.dumps(env, sort_keys=True))
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": w.name, "seed": args.seed, "seconds": args.seconds,
                    "environment": env, "wall_clock_metrics": raw,
                    "setup_samples": setup_raw}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
