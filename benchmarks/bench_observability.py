"""Benchmark: observability overhead guard.

The tracing/metrics layer (``repro.obs``) promises near-zero cost when
disabled and bounded cost when enabled.  This suite enforces the two
acceptance bars from the observability issue:

* **enabled <= 5 %** — the PowCov wave build and the engine batch query
  loop are timed with tracing + metrics fully on vs. fully off,
  interleaved (off, on, off, on, ...) so thermal/frequency drift hits
  both configurations equally, min-of-N to discard noisy rounds;
* **disabled ~ 0 %** — the disabled path is a shared no-op context
  handle plus a flag read, which cannot be demonstrated by diffing two
  macro runs of *identical* code (that only measures timer noise), so
  it is pinned directly: a microbenchmark asserts the per-call cost of
  a disabled ``span()`` stays in the sub-microsecond range, orders of
  magnitude below the work each instrumented site wraps.

Run with ``pytest benchmarks/bench_observability.py --benchmark-only``.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

from repro.core.powcov import PowCovIndex
from repro.engine import QuerySession
from repro.graph.generators import labeled_erdos_renyi
from repro.obs.metrics import metrics_enabled, registry, set_metrics
from repro.obs.trace import reset_trace, set_tracing, span

ROUNDS = 9
ENABLED_ALLOWANCE = 1.05  # the <=5% acceptance bar

#: per-call budget for a *disabled* span (enter + exit + dead count()).
#: Measured ~0.2us on commodity hardware; 2us is an order-of-magnitude
#: cushion that still guarantees "~0%" against sites doing >=1ms of work.
DISABLED_SPAN_BUDGET_SECONDS = 2e-6

# One round runs >=100ms: comparing two configurations at a 5%
# resolution needs timings well above scheduler jitter (a few ms per
# round on shared runners).  A round repeats the workload as often as it
# takes (``_rounds_of``), and ``_record_overhead`` fails a guard whose
# off rounds came in shorter.
MIN_ROUND_SECONDS = 0.1
BUILD_GRAPH = labeled_erdos_renyi(700, 2400, num_labels=4, seed=13)
BUILD_K = 6

QUERY_GRAPH = labeled_erdos_renyi(200, 700, num_labels=4, seed=17)
NUM_QUERIES = 30_000


def _observability(enabled: bool) -> None:
    set_tracing(enabled)
    set_metrics(enabled)
    reset_trace()
    registry().reset()


def _interleaved_min(work, rounds=ROUNDS):
    """min-of-N wall time for ``work()`` with observability off vs. on,
    alternating configurations every round.  GC runs between rounds (and
    is paused during them) so collection pauses triggered by span/metric
    allocations are not charged to the enabled configuration."""
    best = {"off": float("inf"), "enabled": float("inf")}
    try:
        work()  # warm-up round outside the timers
        for _ in range(rounds):
            for key, flag in (("off", False), ("enabled", True)):
                _observability(flag)
                gc.collect()
                gc.disable()
                started = time.perf_counter()
                work()
                best[key] = min(best[key], time.perf_counter() - started)
                gc.enable()
    finally:
        gc.enable()
        _observability(False)
    return best


def _rounds_of(work):
    """``work`` repeated often enough that a round passes
    ``MIN_ROUND_SECONDS``, with 1.5x headroom over the fastest of three
    timed calls."""
    _observability(False)
    fastest = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        work()
        fastest = min(fastest, time.perf_counter() - started)
    repeats = max(1, math.ceil(1.5 * MIN_ROUND_SECONDS / fastest))

    def round_of_work():
        for _ in range(repeats):
            work()

    return round_of_work, repeats


def _record_overhead(benchmark, work):
    """Measure, retrying on environment spikes: the guard fails only when
    the overhead exceeds the budget on every attempt."""
    work, repeats = _rounds_of(work)
    benchmark.extra_info["repeats_per_round"] = repeats
    best = _interleaved_min(work)
    overhead = best["enabled"] / best["off"] - 1
    for _ in range(2):
        if best["enabled"] <= best["off"] * ENABLED_ALLOWANCE:
            break
        best = _interleaved_min(work)
        overhead = min(overhead, best["enabled"] / best["off"] - 1)
    benchmark.extra_info["off_seconds"] = best["off"]
    benchmark.extra_info["enabled_seconds"] = best["enabled"]
    benchmark.extra_info["enabled_overhead"] = overhead
    assert best["off"] >= MIN_ROUND_SECONDS, (
        f"off round {best['off'] * 1e3:.1f}ms is too short to resolve 5%"
    )
    assert overhead <= ENABLED_ALLOWANCE - 1, (
        f"tracing+metrics overhead {overhead:.1%} exceeds the 5% budget"
    )


def _query_stream(graph, count=NUM_QUERIES, seed=23):
    rng = np.random.default_rng(seed)
    universe = (1 << graph.num_labels) - 1
    return [
        (
            int(rng.integers(graph.num_vertices)),
            int(rng.integers(graph.num_vertices)),
            int(rng.integers(1, universe + 1)),
        )
        for _ in range(count)
    ]


def test_build_overhead_guard(benchmark):
    """Wave build with tracing + metrics enabled stays within 5%."""

    def build():
        PowCovIndex(BUILD_GRAPH, range(BUILD_K), builder="wave").build()

    _record_overhead(benchmark, build)
    benchmark.pedantic(build, rounds=3, iterations=1)


def test_query_overhead_guard(benchmark):
    """Engine batch loop with tracing + metrics enabled stays within 5%."""
    oracle = PowCovIndex(QUERY_GRAPH, range(6)).build()
    stream = _query_stream(QUERY_GRAPH)

    def serve():
        QuerySession(oracle).run(stream)

    benchmark.extra_info["num_queries"] = NUM_QUERIES
    _record_overhead(benchmark, serve)
    benchmark.pedantic(serve, rounds=3, iterations=1)


def test_disabled_span_is_nearly_free(benchmark):
    """Per-call cost of a disabled span stays in the noise floor."""
    _observability(False)
    assert not metrics_enabled()
    iterations = 200_000

    def spin():
        for _ in range(iterations):
            with span("noop", k=3) as sp:
                sp.count("dead")

    def bare():
        for _ in range(iterations):
            pass

    spin_best = bare_best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        spin()
        spin_best = min(spin_best, time.perf_counter() - started)
        started = time.perf_counter()
        bare()
        bare_best = min(bare_best, time.perf_counter() - started)

    per_call = max(0.0, spin_best - bare_best) / iterations
    benchmark.extra_info["per_call_seconds"] = per_call
    assert per_call <= DISABLED_SPAN_BUDGET_SECONDS, (
        f"disabled span costs {per_call * 1e9:.0f}ns/call, "
        f"budget is {DISABLED_SPAN_BUDGET_SECONDS * 1e9:.0f}ns"
    )
    assert registry().names() == []  # dead counters allocate nothing
    benchmark.pedantic(spin, rounds=3, iterations=1)
