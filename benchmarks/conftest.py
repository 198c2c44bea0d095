"""Shared fixtures for the benchmark suite.

Benchmarks run at a reduced scale so that ``pytest benchmarks/
--benchmark-only`` finishes in a few minutes; the full-scale reproduction
is ``python -m repro.eval.cli all``.  Graphs, workloads and indexes are
built once per session and shared.
"""

from __future__ import annotations

import os

import pytest

from repro.core.chromland import ChromLandIndex, local_search_selection
from repro.core.powcov import PowCovIndex
from repro.graph.datasets import load_dataset, paper_synthetic
from repro.kernels import kernel_name
from repro.landmarks import select_landmarks
from repro.workloads import generate_workload

# REPRO_BENCH_SCALE lets CI smoke jobs shrink the graphs further without
# editing the suite (see .github/workflows/ci.yml).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
BENCH_PAIRS = 60
BENCH_K = 8
BENCH_SEED = 7


@pytest.fixture(scope="session")
def bench_kernel():
    """The concrete backend ``"auto"`` picked (cext when it compiles,
    numpy otherwise), so every benchmark can stamp it into its JSON
    ``extra_info`` row."""
    return kernel_name()


@pytest.fixture(scope="session")
def biogrid():
    graph, _spec = load_dataset("biogrid-sim", scale=BENCH_SCALE, seed=BENCH_SEED)
    return graph


@pytest.fixture(scope="session")
def youtube():
    graph, _spec = load_dataset("youtube-sim", scale=BENCH_SCALE, seed=BENCH_SEED)
    return graph


@pytest.fixture(scope="session")
def synthetic_l6():
    return paper_synthetic(6, num_vertices=1200, num_edges=6000, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def biogrid_workload(biogrid):
    return generate_workload(biogrid, num_pairs=BENCH_PAIRS, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def youtube_workload(youtube):
    return generate_workload(youtube, num_pairs=BENCH_PAIRS, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def biogrid_landmarks(biogrid):
    return select_landmarks(biogrid, BENCH_K, strategy="greedy-mvc", seed=BENCH_SEED)


@pytest.fixture(scope="session")
def biogrid_powcov(biogrid, biogrid_landmarks):
    return PowCovIndex(biogrid, biogrid_landmarks).build()


@pytest.fixture(scope="session")
def biogrid_chromland(biogrid):
    selection = local_search_selection(biogrid, BENCH_K, iterations=40,
                                       seed=BENCH_SEED)
    return ChromLandIndex(biogrid, selection.landmarks, selection.colors).build()


def run_queries(oracle, workload, limit=None):
    """Drive every workload query through ``oracle`` (benchmark body)."""
    queries = workload.queries[:limit] if limit else workload.queries
    total = 0.0
    for q in queries:
        value = oracle.query(q.source, q.target, q.label_mask)
        if value != float("inf"):
            total += value
    return total
