#!/usr/bin/env python3
"""Regenerate the committed connected-graph fixture files.

Extends each connected isomorphism class on n-1 vertices by one new vertex
over all 2^(n-1) - 1 nonempty neighborhoods (every connected graph has a
vertex whose removal leaves it connected), dedups via the package
canonicalizer, and writes the connected classes for n in {7, 8} as sorted
graph6 lines. Expected class counts (853 and 11117) are checked before
writing.

Usage: python scripts/make_corpus.py [outdir]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from distlap.graphs import FIXTURE_COUNTS, _connected_classes_g6


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("src/distlap/data")
    outdir.mkdir(parents=True, exist_ok=True)
    for n in (7, 8):
        t0 = time.time()
        lines = _connected_classes_g6(n)
        expect = FIXTURE_COUNTS[n]
        if len(lines) != expect:
            print(f"n={n}: got {len(lines)} connected classes, expected {expect}", file=sys.stderr)
            return 1
        path = outdir / f"connected{n}.g6"
        path.write_text("\n".join(lines) + "\n")
        print(f"n={n}: wrote {len(lines)} classes to {path} in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
