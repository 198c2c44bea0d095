"""Benchmark: serial vs. parallel index construction (`repro.perf`).

Records the serial and 4-thread build times of the Table-3 workhorses on
the k=8, scale-0.25 bench graphs into the pytest-benchmark JSON trajectory
(``--benchmark-json``), with the measured speedup and ``os.cpu_count()``
in ``extra_info``.  Every timed comparison also re-asserts the engine's
core guarantee: the parallel index is bit-for-bit identical to the serial
one.  The speedup is recorded, not asserted: it is bounded by the cores
the runner has, and 4 threads on fewer cores only add switching.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.chromland import ChromLandIndex, local_search_selection
from repro.core.powcov import PowCovIndex
from repro.perf import batched_constrained_bfs
from repro.graph.traversal import constrained_bfs

from conftest import BENCH_K, BENCH_SEED

PARALLEL_4 = 4


def _timed(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def test_powcov_build_serial(benchmark, biogrid, biogrid_landmarks):
    index = benchmark.pedantic(
        lambda: PowCovIndex(biogrid, biogrid_landmarks).build(),
        rounds=2, iterations=1,
    )
    benchmark.extra_info["k"] = BENCH_K
    benchmark.extra_info["entries"] = index.index_size_entries()


def test_powcov_build_parallel_4(benchmark, biogrid, biogrid_landmarks):
    index = benchmark.pedantic(
        lambda: PowCovIndex(biogrid, biogrid_landmarks).build(parallel=PARALLEL_4),
        rounds=2, iterations=1,
    )
    benchmark.extra_info["k"] = BENCH_K
    benchmark.extra_info["num_workers"] = 4
    benchmark.extra_info["entries"] = index.index_size_entries()


def test_powcov_serial_vs_parallel_speedup(benchmark, biogrid, biogrid_landmarks):
    """One test carrying both times + the speedup, for the BENCH trajectory."""
    serial, serial_seconds = _timed(
        lambda: PowCovIndex(biogrid, biogrid_landmarks).build(), rounds=2
    )
    parallel, parallel_seconds = _timed(
        lambda: PowCovIndex(biogrid, biogrid_landmarks).build(parallel=PARALLEL_4),
        rounds=2,
    )
    assert serial.table == parallel.table  # bit-identical output
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["parallel_seconds"] = parallel_seconds
    benchmark.extra_info["speedup"] = serial_seconds / parallel_seconds
    benchmark.extra_info["num_workers"] = 4
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    # Re-run the faster configuration under the benchmark fixture so the
    # JSON row carries a properly sampled timing alongside the extra_info.
    benchmark.pedantic(
        lambda: PowCovIndex(biogrid, biogrid_landmarks).build(parallel=PARALLEL_4),
        rounds=1, iterations=1,
    )


def test_chromland_build_serial(benchmark, biogrid):
    selection = local_search_selection(biogrid, BENCH_K, iterations=40,
                                       seed=BENCH_SEED)

    def build():
        return ChromLandIndex(biogrid, selection.landmarks, selection.colors).build()

    benchmark.pedantic(build, rounds=3, iterations=1)
    benchmark.extra_info["k"] = BENCH_K


def test_chromland_build_parallel_4(benchmark, biogrid):
    selection = local_search_selection(biogrid, BENCH_K, iterations=40,
                                       seed=BENCH_SEED)
    serial = ChromLandIndex(biogrid, selection.landmarks, selection.colors).build()

    def build():
        return ChromLandIndex(
            biogrid, selection.landmarks, selection.colors
        ).build(parallel=PARALLEL_4)

    index = benchmark.pedantic(build, rounds=2, iterations=1)
    assert np.array_equal(serial.mono, index.mono)
    assert np.array_equal(serial.bi, index.bi)
    benchmark.extra_info["k"] = BENCH_K
    benchmark.extra_info["num_workers"] = 4


def test_batched_bfs_vs_serial_sweeps(benchmark, biogrid):
    """The batched kernel vs. one constrained_bfs per source (16 sources)."""
    rng = np.random.default_rng(BENCH_SEED)
    sources = [int(s) for s in rng.integers(0, biogrid.num_vertices, size=16)]
    universe = (1 << biogrid.num_labels) - 1
    masks = [int(m) for m in rng.integers(1, universe + 1, size=16)]

    _, loop_seconds = _timed(
        lambda: [constrained_bfs(biogrid, s, m) for s, m in zip(sources, masks)]
    )
    batch, batch_seconds = _timed(
        lambda: batched_constrained_bfs(biogrid, sources, masks=masks)
    )
    for i, (s, m) in enumerate(zip(sources, masks)):
        assert np.array_equal(batch[i], constrained_bfs(biogrid, s, m))
    benchmark.extra_info["loop_seconds"] = loop_seconds
    benchmark.extra_info["batched_seconds"] = batch_seconds
    benchmark.extra_info["speedup"] = loop_seconds / batch_seconds
    benchmark.pedantic(
        lambda: batched_constrained_bfs(biogrid, sources, masks=masks),
        rounds=3, iterations=1,
    )
