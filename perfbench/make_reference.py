"""Regenerate reference_corpus.json, the label-free corpus references (n=7, n=8).

    python3 perfbench/make_reference.py

Runs `distlap corpus --n N --audit-extremal --format json` once over each
packaged fixture (n=8 is the corpus8-audit workload; n=7 is where its trace
overhead is measured), checks every graph's dL1 against the benchmark's own
BFS + eigvalsh, and writes the tallies and extremal-audit summaries that
every corpus run is compared with. The committed file was made with the
seed code; regenerate it only when a change is meant to alter verdicts.
"""

from __future__ import annotations

import json
import signal
import sys

import run


def main() -> int:
    run.cap_threads()
    signal.signal(signal.SIGALRM, run._on_alarm)
    sys.path.insert(0, str(run.SRC))
    import oracle
    work = run.OUT / "reference"
    work.mkdir(parents=True, exist_ok=True)
    references = {}
    for n in (7, 8):
        corpus = (run.SRC / "distlap" / "data" / f"connected{n}.g6").read_text().split()
        _, rc, out, audits = run.corpus_pass(n, corpus, work, deadline_s=run.RUN_BUDGET_S)
        references[str(n)] = oracle.corpus_summary(rc, out, corpus, audits)
        print(n, json.dumps(references[str(n)]["tallies"]))
    for f in work.iterdir():
        f.unlink()
    work.rmdir()
    (run.HERE / "reference_corpus.json").write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
