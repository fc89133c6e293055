"""Opt-in checks over all 11,117 connected n = 8 graphs, marked corpus8.

The default selection leaves them out (pyproject.toml's addopts); run them with

    PYTHONPATH=src python -m pytest -q -m corpus8
"""

import pytest

from distlap.graphs import enumerate_connected
from distlap.verify import BATCH, analyze_many
from helpers import assert_table_matches_run_checks

pytestmark = pytest.mark.corpus8


@pytest.mark.parametrize("mode", ["default", "max-l1"])
def test_claim_table_matches_run_checks_on_the_n8_corpus(mode):
    # every n = 8 graph, in the sweep's stacks; none fails a claim, so the
    # table fills every report
    graphs = list(enumerate_connected(8))
    tabled = sum(assert_table_matches_run_checks(analyze_many(graphs[i:i + BATCH], mode))
                 for i in range(0, len(graphs), BATCH))
    assert tabled == len(graphs) == 11117
