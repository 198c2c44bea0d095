"""Benchmark: wave-batched vs. scalar TraversePowerset (the PowCov build).

The wave builder answers a whole cardinality wave of candidate masks with
one batched multi-source BFS and runs Theorem 2 as a stacked sweep against
the previous wave, so its per-landmark build time must beat the scalar
one-BFS-per-mask loop by a wide margin on the Table-3 stand-in graphs.
This suite *enforces* the >= 2x wall-clock bar on the two configurations
with the widest measured headroom, records every speedup in the
pytest-benchmark JSON trajectory, and re-asserts the non-negotiable
guarantee on every comparison: the wave builder's SP-minimal entries are
bit-for-bit identical to the scalar builder's (and, on a small instance,
to brute force).  ``extra_info`` also carries the tracemalloc high-water
mark of both builders: the ring cache retains O(max_k C(|L|, k) * n)
distance rows versus the scalar builder's all-masks dictionary
(O(2^|L| * n)), though at bench scale the wave peak is dominated by the
kernel's transient per-level arrays rather than by retained rows — the
trajectory keeps both numbers so the crossover stays visible as |L| and
the graphs grow.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core.powcov import traverse_powerset_waves
from repro.core.powcov.spminimal import brute_force_sp_minimal, traverse_powerset
from repro.graph.datasets import load_dataset, paper_synthetic
from repro.graph.generators import labeled_erdos_renyi

from conftest import BENCH_SCALE, BENCH_SEED

LANDMARK = 3

#: The wave builder always runs Observations 1-3, so the scalar side of
#: the comparison runs the same rules: Observation-4 bookkeeping is
#: per-mask Python either way and not what this suite measures.
SCALAR_FLAGS = dict(use_obs4=False)


@pytest.fixture(scope="module")
def synthetic_l8():
    return paper_synthetic(8, num_vertices=1200, num_edges=6000, seed=BENCH_SEED)


@pytest.fixture(scope="module")
def dblp():
    graph, _spec = load_dataset("dblp-sim", scale=BENCH_SCALE, seed=BENCH_SEED)
    return graph


def _timed(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _compare(benchmark, graph, kernel="numpy", min_speedup=None):
    benchmark.extra_info["kernel"] = kernel
    scalar, scalar_seconds = _timed(
        lambda: traverse_powerset(graph, LANDMARK, **SCALAR_FLAGS)
    )
    wave, wave_seconds = _timed(
        lambda: traverse_powerset_waves(graph, LANDMARK)
    )
    assert wave.entries == scalar.entries  # bit-identical output
    assert wave.num_sssp == scalar.num_sssp
    assert wave.num_full_tests == scalar.num_full_tests
    speedup = scalar_seconds / wave_seconds
    benchmark.extra_info["scalar_seconds"] = scalar_seconds
    benchmark.extra_info["wave_seconds"] = wave_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["scalar_peak_mb"] = _peak_mb(
        lambda: traverse_powerset(graph, LANDMARK, **SCALAR_FLAGS)
    )
    benchmark.extra_info["wave_peak_mb"] = _peak_mb(
        lambda: traverse_powerset_waves(graph, LANDMARK)
    )
    if min_speedup is not None:
        assert speedup >= min_speedup, (
            f"wave builder managed only {speedup:.2f}x over scalar "
            f"(scalar {scalar_seconds:.3f}s, wave {wave_seconds:.3f}s); "
            f"the bar is {min_speedup}x"
        )
    # Re-run the wave builder under the benchmark fixture so the JSON row
    # carries a properly sampled timing alongside the extra_info.
    benchmark.pedantic(
        lambda: traverse_powerset_waves(graph, LANDMARK),
        rounds=2, iterations=1,
    )


def test_wave_vs_scalar_biogrid(benchmark, biogrid, bench_kernel):
    """Hard >= 2x bar on the densest stand-in (widest measured headroom)."""
    _compare(benchmark, biogrid, kernel=bench_kernel, min_speedup=2.0)


def test_wave_vs_scalar_synthetic_l8(benchmark, synthetic_l8, bench_kernel):
    """Hard >= 2x bar on the |L|=8 synthetic (256-mask powerset)."""
    _compare(benchmark, synthetic_l8, kernel=bench_kernel, min_speedup=2.0)


def test_wave_vs_scalar_dblp(benchmark, dblp, bench_kernel):
    """Trajectory row for dblp-sim; speedup recorded, not enforced."""
    _compare(benchmark, dblp, kernel=bench_kernel)


def test_wave_vs_scalar_synthetic_l6(benchmark, synthetic_l6, bench_kernel):
    """Trajectory row for the ablation graph; recorded, not enforced."""
    _compare(benchmark, synthetic_l6, kernel=bench_kernel)


def test_wave_matches_brute_force():
    """Ground truth: on a small instance the wave entries are the paper's
    Definition 1-2 SP-minimal sets, not merely scalar-builder-compatible."""
    graph = labeled_erdos_renyi(60, 180, num_labels=5, seed=BENCH_SEED)
    wave = traverse_powerset_waves(graph, LANDMARK)
    assert wave.entries == brute_force_sp_minimal(graph, LANDMARK).entries
