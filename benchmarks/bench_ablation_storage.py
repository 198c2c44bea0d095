"""Ablation: PowCov storage layout — the sorted table vs prefix trees.

Section 3.1 proposes grouping same-distance label sets into prefix trees.
The index keeps one sorted table; this ablation builds the paper's
per-pair tries from that table on demand and measures the query-time and
answers-identical trade-off of the two layouts.
"""

from __future__ import annotations

import pytest

from repro.core.powcov import PowCovIndex
from repro.core.trie import TrieOracle

from conftest import run_queries


@pytest.fixture(scope="module")
def indexes(biogrid, biogrid_landmarks):
    table = PowCovIndex(biogrid, biogrid_landmarks).build()
    return table, TrieOracle(table)


def test_table_queries(benchmark, indexes, biogrid_workload):
    table, _ = indexes
    benchmark(run_queries, table, biogrid_workload)


def test_trie_queries(benchmark, indexes, biogrid_workload):
    _, trie = indexes
    benchmark(run_queries, trie, biogrid_workload)


def test_layouts_agree(indexes, biogrid_workload):
    table, trie = indexes
    for q in biogrid_workload.queries[:200]:
        reference = table.query(q.source, q.target, q.label_mask)
        assert trie.query(q.source, q.target, q.label_mask) == reference
