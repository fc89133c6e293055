"""Shared fixtures: each corpus is swept once, and each of its graphs
analyzed once, per session and coloring mode, and its reports, analyses and
CLI outputs are reused."""

from __future__ import annotations

import pytest

from distlap.cli import main
from distlap.graphs import enumerate_connected
from distlap.verify import analyze
from helpers import swept_reports

MODES = ("default", "max-l1")


class _Sweeps(dict):
    """The CheckReports sweep makes of every connected graph of order n in a
    coloring mode, in enumeration order, keyed by (mode, n); each order is
    swept on first use, so the n = 8 corpus only by the corpus8 cases."""

    def __missing__(self, key):
        mode, n = key
        graphs = list(enumerate_connected(n))
        self[key] = reports = swept_reports(graphs, mode)
        return reports


class _Analyses(dict):
    """analyze(g, mode) of every connected graph g of order n, in enumeration
    order, keyed by (mode, n); each order is analyzed on first use, so the
    n = 8 corpus only by the corpus8 cases."""

    def __missing__(self, key):
        mode, n = key
        self[key] = analyses = [analyze(g, mode) for g in enumerate_connected(n)]
        return analyses


@pytest.fixture(scope="session")
def corpus_reports():
    """The sweep's reports, corpus_reports[mode, n], shared by the session."""
    return _Sweeps()


@pytest.fixture(scope="session")
def mode_corpus_analyses():
    """Each graph's analysis, mode_corpus_analyses[mode, n], shared by the session."""
    return _Analyses()


@pytest.fixture(scope="session")
def corpus_analyses(mode_corpus_analyses):
    """GraphAnalysis records for every connected isomorphism class, n = 1..7."""
    return {n: mode_corpus_analyses["default", n] for n in range(1, 8)}


@pytest.fixture(scope="session")
def corpus_analyses_max_l1(mode_corpus_analyses):
    """The same records with coloring_mode "max-l1"."""
    return {n: mode_corpus_analyses["max-l1", n] for n in range(1, 8)}


@pytest.fixture(params=MODES)
def mode_analyses(request):
    """(coloring mode, the corpus records in that mode), once for each mode."""
    fixture = "corpus_analyses" if request.param == "default" else "corpus_analyses_max_l1"
    return request.param, request.getfixturevalue(fixture)


@pytest.fixture(params=[
    *(pytest.param((mode, range(1, 8)), id=mode) for mode in MODES),
    *(pytest.param((mode, [8]), id=f"n8-{mode}", marks=pytest.mark.corpus8) for mode in MODES),
])
def mode_reports(request, corpus_reports):
    """(coloring mode, {n: the sweep's reports}) for n = 1..7 in each mode, and
    as corpus8 cases for n = 8 alone."""
    mode, orders = request.param
    return mode, {n: corpus_reports[mode, n] for n in orders}


@pytest.fixture(scope="session")
def corpus_run(tmp_path_factory):
    """run(n, mode, fmt, audit, jobs) -> (exit code, path of the output) of
    `distlap corpus --n n --coloring mode --format fmt [--audit-extremal]
    [--jobs jobs] --out path`, each command run once per session."""
    out_dir = tmp_path_factory.mktemp("corpus")
    runs = {}

    def run(n, mode="default", fmt="pretty", audit=False, jobs=1):
        key = (n, mode, fmt, audit, jobs)
        if key not in runs:
            path = out_dir / "-".join(map(str, key))
            argv = ["corpus", "--n", str(n), "--coloring", mode, "--format", fmt,
                    "--jobs", str(jobs), "--out", str(path)]
            runs[key] = main(argv + ["--audit-extremal"] * audit), path
        return runs[key]

    return run
