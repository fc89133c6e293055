"""Shared fixtures: corpus analyses are computed once per session and reused."""

from __future__ import annotations

import operator

import pytest

from distlap.graphs import enumerate_connected
from distlap.verify import sweep


@pytest.fixture(scope="session")
def corpus_analyses():
    """GraphAnalysis records for every connected isomorphism class, n = 1..7."""
    return {n: list(sweep(list(enumerate_connected(n)), operator.attrgetter("analysis")))
            for n in range(1, 8)}
