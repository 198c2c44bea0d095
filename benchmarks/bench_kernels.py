"""Benchmark: compiled kernel backends vs. the numpy reference.

Measures the three :mod:`repro.kernels` loops on the Table-3 stand-in
graphs, once per backend available in this environment:

* the bit-parallel MS-BFS sweep (what the wave builder spends its time
  in) — this is where the **>= 5x steady-state bar** is enforced for
  compiled backends;
* the end-to-end wave build (``traverse_powerset_waves``) — recorded but
  not enforced: per-mask Python bookkeeping bounds the whole-build gain
  (Amdahl), which is exactly why the JSON rows keep both numbers;
* the ChromLand auxiliary-graph Dijkstra — recorded.

Warm-up (the first call, which for the C extension includes a one-time
``cc`` run memoized into a per-source-hash ``.so`` cache) is timed
separately from steady state and reported in its own ``extra_info``
field, never mixed into the speedup.

Every row re-asserts bit-identity against numpy before any speed claim.
The measured table lives in ``BENCH_KERNELS.md`` next to this file.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.powcov import traverse_powerset_waves
from repro.kernels import available_kernels, resolve_kernel
from repro.perf.batched import batched_constrained_bfs

from conftest import BENCH_SEED

#: Compiled backends present in this environment (may be empty).
COMPILED = [name for name in available_kernels() if name != "numpy"]

#: Enforced steady-state bar for compiled backends on the MS-BFS sweep.
MIN_KERNEL_SPEEDUP = 5.0

MSBFS_ROWS = 70


def _timed(fn, rounds=5):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def _msbfs_batch(graph):
    rng = np.random.default_rng(BENCH_SEED)
    sources = rng.integers(0, graph.num_vertices, size=MSBFS_ROWS).tolist()
    universe = (1 << graph.num_labels) - 1
    masks = [int(m) for m in rng.integers(1, universe + 1, size=MSBFS_ROWS)]
    return sources, masks


def _compare_msbfs(benchmark, graph, backend_name, enforce):
    """Warm-up + steady-state for one compiled backend vs. numpy."""
    sources, masks = _msbfs_batch(graph)
    numpy_kernel = resolve_kernel("numpy")

    def sweep(kernel):
        return batched_constrained_bfs(graph, sources, masks=masks,
                                       kernel=kernel)

    want, numpy_seconds = _timed(lambda: sweep(numpy_kernel))

    started = time.perf_counter()
    compiled = resolve_kernel(backend_name)
    got = sweep(compiled)
    warmup_seconds = time.perf_counter() - started
    assert np.array_equal(got, want)  # bit-identical before any speed claim

    _, native_seconds = _timed(lambda: sweep(compiled))
    speedup = numpy_seconds / native_seconds

    benchmark.extra_info["kernel"] = backend_name
    benchmark.extra_info["rows"] = MSBFS_ROWS
    benchmark.extra_info["warmup_seconds"] = warmup_seconds
    benchmark.extra_info["numpy_seconds"] = numpy_seconds
    benchmark.extra_info["native_seconds"] = native_seconds
    benchmark.extra_info["speedup"] = speedup
    if enforce:
        assert speedup >= MIN_KERNEL_SPEEDUP, (
            f"{backend_name} MS-BFS kernel managed only {speedup:.2f}x over "
            f"numpy (numpy {numpy_seconds * 1e3:.2f}ms, native "
            f"{native_seconds * 1e3:.2f}ms); the bar is "
            f"{MIN_KERNEL_SPEEDUP}x"
        )
    benchmark.pedantic(lambda: sweep(compiled), rounds=3, iterations=1)


@pytest.mark.parametrize("backend_name", COMPILED or ["numpy"])
def test_msbfs_kernel_speedup_biogrid(benchmark, biogrid, backend_name):
    """Hard >= 5x steady-state bar on the densest Table-3 stand-in."""
    _compare_msbfs(benchmark, biogrid, backend_name,
                   enforce=backend_name != "numpy")


@pytest.mark.parametrize("backend_name", COMPILED or ["numpy"])
def test_msbfs_kernel_speedup_synthetic_l6(benchmark, synthetic_l6,
                                           backend_name):
    """Hard >= 5x bar on the |L|=6 synthetic ablation graph."""
    _compare_msbfs(benchmark, synthetic_l6, backend_name,
                   enforce=backend_name != "numpy")


@pytest.mark.parametrize("backend_name", COMPILED or ["numpy"])
def test_wave_build_end_to_end(benchmark, biogrid, backend_name):
    """Whole ``traverse_powerset_waves`` build: recorded, not enforced —
    the Python per-mask bookkeeping outside the kernels caps this."""
    numpy_result, numpy_seconds = _timed(
        lambda: traverse_powerset_waves(graph=biogrid, landmark=3,
                                        use_obs4=False, kernel="numpy"),
        rounds=3,
    )
    native_result, native_seconds = _timed(
        lambda: traverse_powerset_waves(graph=biogrid, landmark=3,
                                        use_obs4=False, kernel=backend_name),
        rounds=3,
    )
    assert native_result.entries == numpy_result.entries
    benchmark.extra_info["kernel"] = backend_name
    benchmark.extra_info["numpy_seconds"] = numpy_seconds
    benchmark.extra_info["native_seconds"] = native_seconds
    benchmark.extra_info["speedup"] = numpy_seconds / native_seconds
    benchmark.pedantic(
        lambda: traverse_powerset_waves(graph=biogrid, landmark=3,
                                        use_obs4=False, kernel=backend_name),
        rounds=2, iterations=1,
    )


@pytest.mark.parametrize("backend_name", COMPILED or ["numpy"])
def test_aux_dijkstra_kernel(benchmark, backend_name):
    """ChromLand Theorem 5 Dijkstra at a serving-sized k: recorded."""
    k, calls = 200, 50
    rng = np.random.default_rng(BENCH_SEED)
    weights = rng.uniform(0.5, 10.0, size=(k, k))
    weights[rng.random((k, k)) < 0.3] = np.inf
    np.fill_diagonal(weights, np.inf)
    ds = rng.uniform(0.0, 10.0, size=k)
    dt = rng.uniform(0.0, 10.0, size=k)
    best = float((ds + dt).min())

    def run(kernel):
        backend = resolve_kernel(kernel)
        out = 0.0
        for _ in range(calls):
            out = backend.aux_dijkstra(weights, ds.copy(), dt, best)
        return out

    want, numpy_seconds = _timed(lambda: run("numpy"))
    got, native_seconds = _timed(lambda: run(backend_name))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    benchmark.extra_info["kernel"] = backend_name
    benchmark.extra_info["k"] = k
    benchmark.extra_info["numpy_us_per_call"] = numpy_seconds / calls * 1e6
    benchmark.extra_info["native_us_per_call"] = native_seconds / calls * 1e6
    benchmark.extra_info["speedup"] = numpy_seconds / native_seconds
    benchmark.pedantic(lambda: run(backend_name), rounds=2, iterations=1)
