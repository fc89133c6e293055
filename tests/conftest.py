"""Shared fixtures: corpus analyses are computed once per session and reused."""

from __future__ import annotations

import pytest

from distlap.graphs import enumerate_connected
from distlap.verify import analyze_many, batches


@pytest.fixture(scope="session")
def corpus_analyses():
    """GraphAnalysis records for every connected isomorphism class, n = 1..7."""
    return {n: [a for batch in batches(list(enumerate_connected(n)))
                for a in analyze_many(batch)]
            for n in range(1, 8)}
