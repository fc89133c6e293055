"""Output checks for the benchmark, independent of distlap's own code.

The spectral radius dL1 is recomputed here from the graph6 input (BFS
distances, then numpy.linalg.eigvalsh) and compared with the value distlap
reports through the ah_bound slack: dl1_minus_b_chi + b_chi. The corpus run is
also compared with a reference taken from the seed code, in a label-free form
(tallies, minima, minimizer part sizes), so that it holds for every seeded
relabeling of the corpus.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import decode_g6

CHECK_IDS = ("ah_bound", "color_majorization", "many_above_b_chi", "k_range",
             "interval_sandwich", "n_multiplicity", "clique_twin_refine",
             "indep_twin_refine", "diameter_refine")
VERDICTS = ("pass", "fail", "not-applicable")
DL1_TOL_PER_VERTEX = 1e-8


class OracleError(Exception):
    """distlap's output disagrees with the benchmark's own computation."""


def distance_laplacian(n: int, adj: list[int]) -> np.ndarray:
    dist = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        seen, frontier, d = 1 << s, 1 << s, 0
        while frontier:
            nxt = 0
            for v in range(n):
                if frontier >> v & 1:
                    nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= frontier
            d += 1
            for v in range(n):
                if frontier >> v & 1:
                    dist[s, v] = d
        if seen != (1 << n) - 1:
            raise OracleError("input graph is disconnected")
    return np.diag(dist.sum(axis=1)) - dist


def dl1(g6: str) -> float:
    n, adj = decode_g6(g6)
    return float(np.linalg.eigvalsh(distance_laplacian(n, adj).astype(np.float64))[-1])


def is_complete(g6: str) -> bool:
    n, adj = decode_g6(g6)
    return sum(a.bit_count() for a in adj) == n * (n - 1)


def multipartite_parts(g6: str) -> list[int] | None:
    """Part sizes, largest first, if the graph is complete multipartite."""
    n, adj = decode_g6(g6)
    full = (1 << n) - 1
    parts, left = [], full
    while left:
        v = (left & -left).bit_length() - 1
        block = full & ~adj[v]  # v and its non-neighbours
        for u in range(n):
            if block >> u & 1 and full & ~adj[u] != block:
                return None
        parts.append(block.bit_count())
        left &= ~block
    return sorted(parts, reverse=True)


def check_graph_records(g6: str, records: list[dict], expected_dl1: float | None = None) -> None:
    """Check the nine checker records distlap wrote for one input graph."""
    n, adj = decode_g6(g6)
    m = sum(a.bit_count() for a in adj) // 2
    ids = tuple(r.get("check_id") for r in records)
    if ids != CHECK_IDS:
        raise OracleError(f"{g6}: check ids {ids}")
    first = records[0]
    chi, b_chi = first["chi"], first["b_chi"]
    if not 1 <= chi <= n or b_chi != n + math.ceil(n / chi):
        raise OracleError(f"{g6}: chi={chi}, b_chi={b_chi}")
    for r in records:
        if (r["graph6"], r["n"], r["m"], r["chi"], r["b_chi"]) != (g6, n, m, chi, b_chi):
            raise OracleError(f"{g6}: record header {r['graph6']} n={r['n']} m={r['m']}")
        if r["verdict"] not in VERDICTS or r["applicable"] != (r["verdict"] != "not-applicable"):
            raise OracleError(f"{g6}: {r['check_id']} verdict {r['verdict']!r}")
        if r["verdict"] == "fail":
            raise OracleError(f"{g6}: {r['check_id']} failed: {r['witness']}")
    ah = records[0]
    if ah["verdict"] == "not-applicable":
        if not is_complete(g6):
            raise OracleError(f"{g6}: ah_bound not applicable on an incomplete graph")
        return
    got = ah["slack"]["dl1_minus_b_chi"] + b_chi
    want = dl1(g6) if expected_dl1 is None else expected_dl1
    if not abs(got - want) <= DL1_TOL_PER_VERTEX * n:
        raise OracleError(f"{g6}: dL1 {got!r} from ah_bound slack, expected {want!r}")


def check_verify_output(g6: str, exit_code: int, stdout: str) -> None:
    """Check one `distlap verify --format json` call."""
    if exit_code != 0:
        raise OracleError(f"{g6}: exit code {exit_code}")
    records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    check_graph_records(g6, records)


# ---------------------------------------------------------------------------
# corpus sweep with extremal audit
# ---------------------------------------------------------------------------

def audit_summary(audit) -> dict:
    """Label-free summary of one ExtremalAudit returned by distlap."""
    def parts_of(g6s):
        return sorted(multipartite_parts(g) or [] for g in g6s)
    return {
        "chi": audit.chi,
        "expected_min": audit.expected_min,
        "observed_min": audit.observed_min,
        "graphs_considered": audit.graphs_considered,
        "minimizer_parts": parts_of(audit.minimizers),
        "failures": len(audit.failures),
        "finding_parts": parts_of(f["graph6"] for f in audit.findings),
    }


def corpus_summary(exit_code: int, jsonl_path, inputs: list[str], audits: list) -> dict:
    """Stream distlap's corpus records, check every graph against the BFS +
    eigvalsh dL1, and return the label-free summary the reference holds."""
    n = decode_g6(inputs[0])[0]
    lap = np.stack([distance_laplacian(*decode_g6(g)) for g in inputs]).astype(np.float64)
    radius = dict(zip(inputs, np.linalg.eigvalsh(lap)[:, -1].tolist()))
    tallies = {c: dict.fromkeys(VERDICTS, 0) for c in CHECK_IDS}
    seen: set[str] = set()
    n_records = 0
    batch: list[dict] = []

    def flush():
        g6 = batch[0]["graph6"]
        if g6 not in radius or g6 in seen:
            raise OracleError(f"{g6}: not an input graph, or reported twice")
        seen.add(g6)
        check_graph_records(g6, batch, radius[g6])
        for r in batch:
            tallies[r["check_id"]][r["verdict"]] += 1
        batch.clear()

    with open(jsonl_path) as fh:
        for line in fh:
            rec = json.loads(line)
            n_records += 1
            if batch and rec["graph6"] != batch[0]["graph6"]:
                flush()
            batch.append(rec)
    if batch:
        flush()
    if len(seen) != len(inputs):
        raise OracleError(f"records cover {len(seen)} of {len(inputs)} input graphs")
    return {"n": n, "exit_code": exit_code, "graphs": len(inputs), "records": n_records,
            "tallies": tallies, "audits": [audit_summary(a) for a in audits]}


def compare_corpus(summary: dict, reference: dict) -> None:
    """Raise OracleError unless the corpus summary matches the reference."""
    for key in ("n", "exit_code", "graphs", "records", "tallies"):
        if summary[key] != reference[key]:
            raise OracleError(f"corpus {key}: {summary[key]!r} != reference {reference[key]!r}")
    got, want = summary["audits"], reference["audits"]
    if [a["chi"] for a in got] != [a["chi"] for a in want]:
        raise OracleError("extremal audits cover different chi values than the reference")
    for a, b in zip(got, want):
        for key in ("expected_min", "graphs_considered", "minimizer_parts", "failures",
                    "finding_parts"):
            if a[key] != b[key]:
                raise OracleError(f"audit chi={a['chi']} {key}: {a[key]!r} != {b[key]!r}")
        if not abs(a["observed_min"] - b["observed_min"]) <= DL1_TOL_PER_VERTEX * summary["n"]:
            raise OracleError(f"audit chi={a['chi']} minimum {a['observed_min']!r} "
                              f"!= {b['observed_min']!r}")
