"""Opt-in checks over all 11,117 connected n = 8 graphs, marked corpus8.

The default selection leaves them out (pyproject.toml's addopts); run them,
with the n = 8 cases of the other test modules, by

    PYTHONPATH=src python -m pytest -q -m corpus8

The sweeps come from conftest's corpus_reports, once per coloring mode, and
the CLI outputs from corpus_run, once per command. The digests hash integers
and text only, so no BLAS build can move them.
"""

import csv
import hashlib
import json

import pytest

from distlap.coloring import max_ell1_coloring, optimal_coloring
from distlap.graphs import enumerate_connected, to_graph6
from distlap.verify import BATCH
from helpers import assert_table_matches_run_checks

pytestmark = pytest.mark.corpus8

MODES = ("default", "max-l1")


@pytest.mark.parametrize("mode", MODES)
def test_claim_table_matches_run_checks_on_the_n8_corpus(corpus_reports, mode):
    # every n = 8 graph, in the sweep's stacks; none fails a claim, so the
    # table fills every report
    analyses = [r.analysis for r in corpus_reports[mode, 8]]
    tabled = sum(assert_table_matches_run_checks(analyses[i:i + BATCH])
                 for i in range(0, len(analyses), BATCH))
    assert tabled == len(analyses) == 11117


# SHA-256 of repr((graph6, chi, classes)) over the 11117 graphs that corpus --n 8
# runs on
COLORINGS_SHA256 = {
    "default": "0c222c9fb080a2071e9a1b2af5b7830637bb2d45a44699c0ad129ae92721a3c7",
    "max-l1": "44841d033509de7d02364e27c0917639136f5f1ef964e3258fd311b25f273a87",
}


@pytest.mark.parametrize("mode", MODES)
def test_the_n8_colorings_are_pinned(corpus_reports, mode):
    # each graph colored alone and the colorings sweep yields, which start
    # from greedy_starts on 512-graph stacks, give the same digest
    color = {"default": optimal_coloring, "max-l1": max_ell1_coloring}[mode]
    graphs = list(enumerate_connected(8))
    stacked = [r.analysis.coloring for r in corpus_reports[mode, 8]]
    for path, results in (("alone", map(color, graphs)), ("sweep", stacked)):
        digest = hashlib.sha256()
        for g, r in zip(graphs, results, strict=True):
            digest.update(repr((to_graph6(g), r.chi, r.classes)).encode())
        assert digest.hexdigest() == COLORINGS_SHA256[mode], path


# SHA-256 of repr((graph6, m_ge_b, block_counts, mu_at_n, twin_mults, diameter,
# wiener)) over the n = 8 corpus as sweep analyzes it; the Tier-1 pins of these
# facts stop at n = 7
SPECTRAL_FACTS_SHA256 = {
    "default": "7a5ba77355bb1aaf7bba9b066fa46515ea6fb4ef7a4f12b62acce34368d37081",
    "max-l1": "801350e6ba508fbf83b2761f17efe0607371b0029180e03194c1ffddcdb50500",
}


@pytest.mark.parametrize("mode", MODES)
def test_the_n8_spectral_counts_and_distance_facts_are_pinned(corpus_reports, mode):
    digest = hashlib.sha256()
    for report in corpus_reports[mode, 8]:
        a = report.analysis
        digest.update(repr((a.graph6, a.m_ge_b, a.block_counts, a.mu_at_n,
                            a.twin_mults, a.diameter, a.wiener)).encode())
    assert digest.hexdigest() == SPECTRAL_FACTS_SHA256[mode]


# SHA-256 of repr((graph6, twins)) over the n = 8 corpus as sweep analyzes it:
# each class's kind, members, external set, transmission and forced value and
# multiplicity, of which the pin above holds only the realized multiplicities.
# The classes do not depend on the coloring, so both modes have one digest.
TWIN_CLASSES_SHA256 = "a9f742c25f570dc788613d003130f02476a679056b1abbdcd528fa9edbc3222a"


@pytest.mark.parametrize("mode", MODES)
def test_the_n8_twin_classes_are_pinned(corpus_reports, mode):
    digest = hashlib.sha256()
    for report in corpus_reports[mode, 8]:
        a = report.analysis
        digest.update(repr((a.graph6, a.twins)).encode())
    assert digest.hexdigest() == TWIN_CLASSES_SHA256


# SHA-256 of the pretty `corpus --n 8 --audit-extremal` report. It holds only
# integer verdict tallies, the extremal audits and floats at .6g, so a changed
# verdict anywhere in the n = 8 corpus changes it; both coloring modes and the
# worker pool print the same report.
AUDIT_REPORT_SHA256 = "789d9422991e5a4374d0fc65080c0b74ec5d72a86eb01ebed7231cc903d59027"


@pytest.mark.parametrize("mode, jobs", [("default", 1), ("max-l1", 1), ("default", 2)])
def test_the_n8_audit_report_is_pinned(corpus_run, mode, jobs):
    code, out = corpus_run(8, mode, "pretty", audit=True, jobs=jobs)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == AUDIT_REPORT_SHA256


def test_streamed_n8_records_serial_json_and_pooled_csv(corpus_run):
    # the json run is the record skeleton pin's, whose --audit-extremal
    # leaves the records as they are
    code, jsonl = corpus_run(8, "default", "json", audit=True)
    code2, csv_path = corpus_run(8, "default", "csv", jobs=2)
    assert code == code2 == 0
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 100053
    for line in lines:
        json.loads(line)
    with open(csv_path, newline="") as fh:
        assert sum(1 for _ in csv.reader(fh)) == 100054
