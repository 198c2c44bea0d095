"""Benchmarks for the extension modules: serialization, reachability,
nearest-neighbors, directed and weighted PowCov."""

from __future__ import annotations

import numpy as np

from repro import load_index, save_index
from repro.core.nearest import constrained_nearest, rank_candidates
from repro.core.powcov import PowCovIndex, WeightedPowCovIndex
from repro.core.reachability import LandmarkReachabilityIndex

from conftest import BENCH_SEED


def test_powcov_save(benchmark, biogrid, biogrid_powcov, tmp_path_factory):
    path = tmp_path_factory.mktemp("ser") / "powcov.repro"
    benchmark.pedantic(lambda: save_index(biogrid_powcov, path),
                       rounds=2, iterations=1)


def test_powcov_load(benchmark, biogrid, biogrid_powcov, tmp_path_factory):
    path = tmp_path_factory.mktemp("ser") / "powcov.repro"
    save_index(biogrid_powcov, path)
    loaded = benchmark.pedantic(lambda: load_index(path, biogrid),
                                rounds=2, iterations=1)
    assert loaded.index_size_entries() == biogrid_powcov.index_size_entries()


def test_reachability_queries(benchmark, biogrid, biogrid_landmarks):
    index = LandmarkReachabilityIndex(biogrid, biogrid_landmarks).build()
    rng = np.random.default_rng(BENCH_SEED)
    queries = [
        (int(rng.integers(biogrid.num_vertices)),
         int(rng.integers(biogrid.num_vertices)),
         int(rng.integers(1, 1 << biogrid.num_labels)))
        for _ in range(300)
    ]
    benchmark(lambda: sum(index.reachable(*q) for q in queries))


def test_constrained_nearest(benchmark, biogrid):
    benchmark(constrained_nearest, biogrid, 0, 0b0111, 25)


def test_rank_candidates_via_index(benchmark, biogrid, biogrid_powcov):
    rng = np.random.default_rng(BENCH_SEED)
    candidates = [int(v) for v in rng.choice(biogrid.num_vertices, 200,
                                             replace=False)]
    benchmark(rank_candidates, biogrid_powcov, 0, candidates, 0b0111, 10)


def test_weighted_powcov_build(benchmark, youtube):
    rng = np.random.default_rng(BENCH_SEED)
    # symmetric weights: weight by label id (deterministic per arc pair)
    weights = (youtube.edge_labels.astype(np.float64) + 1.0)
    landmarks = [int(v) for v in rng.choice(youtube.num_vertices, 4,
                                            replace=False)]
    index = benchmark.pedantic(
        lambda: WeightedPowCovIndex(youtube, landmarks, weights).build(),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["entries"] = index.index_size_entries()
