"""Shared fixtures: corpus analyses are computed once per session and reused."""

from __future__ import annotations

import operator

import pytest

from distlap.graphs import enumerate_connected
from distlap.verify import sweep


def _corpus(coloring_mode: str) -> dict:
    return {n: list(sweep(list(enumerate_connected(n)), operator.attrgetter("analysis"),
                          coloring_mode))
            for n in range(1, 8)}


@pytest.fixture(scope="session")
def corpus_analyses():
    """GraphAnalysis records for every connected isomorphism class, n = 1..7."""
    return _corpus("default")


@pytest.fixture(scope="session")
def corpus_analyses_max_l1():
    """The same records with coloring_mode "max-l1"."""
    return _corpus("max-l1")


@pytest.fixture(params=["default", "max-l1"])
def mode_analyses(request):
    """(coloring mode, the corpus records in that mode), once for each mode."""
    fixture = "corpus_analyses" if request.param == "default" else "corpus_analyses_max_l1"
    return request.param, request.getfixturevalue(fixture)
