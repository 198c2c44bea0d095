"""repro.obs — the observability layer: tracing, metrics, profiling.

Three zero-dependency facilities, all off by default with near-zero
disabled overhead, wired through the build kernels, the parallel
executor, the query engine and the eval harness:

* :mod:`repro.obs.trace` — structured nested spans (wall + CPU time,
  counters, tags) with a rendered tree summary and JSONL export; a
  threaded build's worker spans nest under the build's span.
* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges
  and log-bucket histograms (p50/p95/p99 without retaining samples).
* :mod:`repro.obs.profiling` — opt-in cProfile/tracemalloc hooks
  (``REPRO_PROFILE=1`` or ``--profile``) writing artifacts per phase.

Quickstart::

    from repro.obs import set_tracing, span, render_trace

    set_tracing(True)
    with span("build", dataset="biogrid") as sp:
        oracle = PowCovIndex(graph, landmarks).build()
        sp.count("entries", oracle.index_size_entries())
    print(render_trace())

See docs/OBSERVABILITY.md for naming conventions and the CLI flags
(``--trace``, ``--metrics-out``, ``--profile``).
"""

from __future__ import annotations

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_enabled,
    registry,
    set_metrics,
)
from .profiling import profile_dir, profile_phase, profiling_enabled, set_profiling
from .trace import (
    Span,
    current_span,
    get_trace,
    render_trace,
    reset_trace,
    set_tracing,
    span,
    trace_to_jsonl,
    tracing_enabled,
    write_jsonl,
)

__all__ = [
    "Span",
    "span",
    "current_span",
    "set_tracing",
    "tracing_enabled",
    "get_trace",
    "reset_trace",
    "render_trace",
    "trace_to_jsonl",
    "write_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "set_metrics",
    "metrics_enabled",
    "profile_phase",
    "profiling_enabled",
    "set_profiling",
    "profile_dir",
]
