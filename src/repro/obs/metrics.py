"""Process-wide metrics registry: counters, gauges, log-bucket histograms.

The registry is the numeric side of the observability layer: cheap named
metrics any module can bump without threading handles through call
signatures.  Three metric kinds:

* :class:`Counter` — monotonically increasing float (counts, seconds);
* :class:`Gauge` — last-written value (occupancy, configuration);
* :class:`Histogram` — fixed **log-scale** buckets.  Quantiles (p50/p95/
  p99) come from cumulative bucket counts with log-linear interpolation
  inside the winning bucket — no sample retention and no numpy percentile
  on the hot path; ``observe`` is one ``bisect`` plus two adds.

Every :class:`~repro.engine.session.QuerySession` counts its engine
events (queries, cache hits and misses, planned masks, ...) here under
``engine.*`` as they happen, so a live server's ``GET /metrics`` shows
them; the build kernels record per-wave widths/pruning under
``powcov.*`` and sessions record per-oracle query-latency histograms
under ``engine.query_seconds.*``.

The engine counters write unconditionally — a few counter increments per
batch or mask group, never per query.  *Optional* metrics on build hot
paths and the latency histograms are guarded by :func:`metrics_enabled`
(the CLI's ``--metrics-out`` flag flips it), so the default build pays
nothing.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_right

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "set_metrics",
    "metrics_enabled",
]

_PROM_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prometheus_name(name: str) -> str:
    """A registry metric name as a legal Prometheus metric name.

    Dots (the registry's namespace separator) and any other illegal
    characters become underscores, and everything is prefixed ``repro_``
    so the exposition can be scraped next to other exporters without
    collisions: ``engine.query_seconds.powcov`` →
    ``repro_engine_query_seconds_powcov``.
    """
    return "repro_" + _PROM_SANITIZE_RE.sub("_", name)


def _prometheus_number(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))

_METRICS_ENABLED = False


def set_metrics(enabled: bool) -> None:
    """Toggle the *optional* (hot-path) metrics process-wide."""
    global _METRICS_ENABLED
    _METRICS_ENABLED = bool(enabled)


def metrics_enabled() -> bool:
    return _METRICS_ENABLED


class Counter:
    """A monotonically increasing value (floats allowed: cumulative seconds)."""

    __slots__ = ("name", "_value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, by: float = 1.0) -> None:
        self._value += by

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "_value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


#: Shared bucket-boundary cache: one boundary tuple per (lo, hi, per_decade).
_BOUNDS_CACHE: dict[tuple[float, float, int], tuple[float, ...]] = {}


def _log_bounds(lo: float, hi: float, per_decade: int) -> tuple[float, ...]:
    key = (lo, hi, per_decade)
    cached = _BOUNDS_CACHE.get(key)
    if cached is not None:
        return cached
    bounds: list[float] = []
    exponent = 0
    while True:
        value = lo * 10.0 ** (exponent / per_decade)
        bounds.append(value)
        if value >= hi:
            break
        exponent += 1
    result = tuple(bounds)
    _BOUNDS_CACHE[key] = result
    return result


class Histogram:
    """Fixed log-scale buckets with interpolated quantiles.

    Default boundaries span 100ns .. 1000s at 10 buckets per decade —
    wide enough for both per-query latencies and whole-build phases.
    Values at or below the lowest boundary land in bucket 0; values above
    the highest land in the overflow bucket.  ``observe`` accepts a
    ``count`` weight so a batch can record its per-query mean once instead
    of paying one call per query.
    """

    __slots__ = ("name", "_bounds", "_counts", "_count", "_total", "_min", "_max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        lo: float = 1e-7,
        hi: float = 1e3,
        per_decade: int = 10,
    ) -> None:
        if lo <= 0 or hi <= lo or per_decade < 1:
            raise ValueError("need 0 < lo < hi and per_decade >= 1")
        self.name = name
        self._bounds = _log_bounds(lo, hi, per_decade)
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``."""
        if count < 1:
            return
        self._counts[bisect_right(self._bounds, value)] += count
        self._count += count
        self._total += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], log-interpolated in-bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self._count == 0:
            return 0.0
        target = q * self._count
        cumulative = 0
        bucket = len(self._counts) - 1
        for i, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target:
                bucket = i
                break
        bounds = self._bounds
        if bucket == 0:
            lower, upper = min(self._min, bounds[0]), bounds[0]
        elif bucket == len(self._counts) - 1:
            lower, upper = bounds[-1], max(self._max, bounds[-1])
        else:
            lower, upper = bounds[bucket - 1], bounds[bucket]
        in_bucket = self._counts[bucket]
        if in_bucket == 0 or upper <= lower:
            estimate = upper
        else:
            fraction = (target - (cumulative - in_bucket)) / in_bucket
            if lower > 0:
                estimate = lower * (upper / lower) ** fraction
            else:
                estimate = lower + (upper - lower) * fraction
        # The true extremes are tracked exactly; never report outside them.
        return min(max(estimate, self._min), self._max)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def snapshot(self) -> dict[str, float]:
        if self._count == 0:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": float(self._count),
            "total": self._total,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class MetricsRegistry:
    """Named metrics, created on first use; one process-wide instance."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(
        self, name: str, kind: type[Counter] | type[Gauge], label: str
    ) -> Counter | Gauge | Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, kind(name))
        if not isinstance(metric, kind):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a {label}")
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if not isinstance(metric, Counter):
            metric = self._get(name, Counter, "counter")
            assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get(name, Gauge, "gauge")
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        lo: float = 1e-7,
        hi: float = 1e3,
        per_decade: int = 10,
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(
                    name, Histogram(name, lo=lo, hi=hi, per_decade=per_decade)
                )
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a histogram")
        return metric

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """All metrics flattened to plain values (histograms to summaries)."""
        return {
            name: metric.snapshot() for name, metric in sorted(self._metrics.items())
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self, title: str = "metrics") -> str:
        """Aligned text block for the CLI footer."""
        lines = [title]
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                s = metric.snapshot()
                lines.append(
                    f"  {name:<40} n={int(s['count']):>8}  mean={s['mean']:.6f}  "
                    f"p50={s['p50']:.6f}  p95={s['p95']:.6f}  p99={s['p99']:.6f}"
                )
            else:
                value = metric.value
                rendered = f"{value:.6f}" if value % 1 else f"{int(value)}"
                lines.append(f"  {name:<40} {rendered:>12}")
        if len(lines) == 1:
            lines.append("  (no metrics recorded)")
        return "\n".join(lines)

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format (0.0.4).

        Counters and gauges render as single samples; histograms render
        with their true log-scale bucket boundaries as cumulative
        ``_bucket{le="..."}`` samples plus ``_sum`` / ``_count``, so a
        scraper recovers the same quantiles :meth:`Histogram.quantile`
        interpolates.  This is what the serving layer's ``GET /metrics``
        endpoint returns.
        """
        lines: list[str] = []
        for name, metric in sorted(self._metrics.items()):
            pname = _prometheus_name(name)
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {pname} counter")
                lines.append(f"{pname} {_prometheus_number(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_prometheus_number(metric.value)}")
            elif isinstance(metric, Histogram):
                lines.append(f"# TYPE {pname} histogram")
                cumulative = 0
                for bound, bucket in zip(metric._bounds, metric._counts):
                    cumulative += bucket
                    lines.append(
                        f'{pname}_bucket{{le="{_prometheus_number(bound)}"}} '
                        f"{cumulative}"
                    )
                lines.append(f'{pname}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{pname}_sum {_prometheus_number(metric.total)}")
                lines.append(f"{pname}_count {metric.count}")
        return "\n".join(lines) + "\n"

    def reset(self, prefix: str | None = None) -> None:
        """Drop every metric, or only those whose name starts with ``prefix``."""
        with self._lock:
            if prefix is None:
                self._metrics.clear()
            else:
                for name in [n for n in self._metrics if n.startswith(prefix)]:
                    del self._metrics[name]


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry instance."""
    return _REGISTRY
