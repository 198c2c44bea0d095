"""Tests for the observability layer (``repro.obs``): tracing, metrics,
profiling, and the engine aggregate that now lives in the registry."""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

from repro.core.powcov import PowCovIndex
from repro.engine import QuerySession
from repro.eval.cli import render_engine_stats
from repro.graph.generators import labeled_erdos_renyi
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_enabled,
    registry,
    set_metrics,
)
from repro.obs.profiling import profile_phase, set_profiling
from repro.obs.trace import (
    Span,
    current_span,
    get_trace,
    render_trace,
    reset_trace,
    set_tracing,
    span,
    spans_under,
    trace_to_jsonl,
    tracing_enabled,
    write_jsonl,
)


@pytest.fixture(autouse=True)
def _clean_observability():
    """Leave the process-wide tracer/metrics/profiling as we found them."""
    set_tracing(False)
    reset_trace()
    yield
    set_tracing(False)
    reset_trace()
    set_metrics(False)
    set_profiling(False)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestSpan:
    def test_count_and_tag(self):
        sp = Span("work")
        sp.count("items", 3)
        sp.count("items")
        sp.tag("k", 8)
        assert sp.counters == {"items": 4}
        assert sp.tags == {"k": "8"}

    def test_dict_round_trip(self):
        root = Span("root", tags={"a": "1"}, wall_seconds=0.5, cpu_seconds=0.25)
        root.count("n", 7)
        root.children.append(Span("child", status="error"))
        data = root.to_dict()
        assert json.loads(json.dumps(data)) == data  # JSON-safe
        assert data == {
            "name": "root",
            "wall_seconds": 0.5,
            "cpu_seconds": 0.25,
            "status": "ok",
            "tags": {"a": "1"},
            "counters": {"n": 7},
            "children": [
                {"name": "child", "wall_seconds": 0.0, "cpu_seconds": 0.0,
                 "status": "error"}
            ],
        }

    def test_to_dict_omits_empty_fields(self):
        data = Span("bare").to_dict()
        assert "tags" not in data and "counters" not in data
        assert "children" not in data


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        handle_a = span("a")
        handle_b = span("b", k=3)
        assert handle_a is handle_b  # one shared object: no per-call alloc
        with handle_a as sp:
            sp.count("ignored")
            sp.tag("ignored", 1)
        assert get_trace() == []

    def test_nesting_builds_a_tree(self):
        set_tracing(True)
        with span("outer", phase="build") as outer:
            outer.count("widgets", 2)
            with span("inner"):
                pass
            with span("inner2"):
                pass
        roots = get_trace()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner", "inner2"]
        assert roots[0].wall_seconds >= roots[0].children[0].wall_seconds
        assert roots[0].tags == {"phase": "build"}

    def test_error_status_and_reraise(self):
        set_tracing(True)
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        (root,) = get_trace()
        assert root.status == "error"

    def test_current_span(self):
        set_tracing(True)
        assert current_span().count("noop") is None  # null span outside
        with span("live") as sp:
            assert current_span() is sp

    def test_threads_get_their_own_roots(self):
        set_tracing(True)

        def worker():
            with span("thread-root"):
                pass

        with span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        names = sorted(r.name for r in get_trace())
        assert names == ["main-root", "thread-root"]

    def test_spans_under_adopts_another_threads_span(self):
        set_tracing(True)

        def worker(parent):
            with spans_under(parent), span("worker"):
                pass

        with span("caller") as caller:
            thread = threading.Thread(target=worker, args=(caller,))
            thread.start()
            thread.join()
        (root,) = get_trace()
        assert [c.name for c in root.children] == ["worker"]

    def test_span_cpu_is_its_own_threads(self):
        # A span that sleeps beside a spinning thread must not be charged
        # the spinner's CPU: span CPU is per thread, not per process.
        set_tracing(True)
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                pass

        spinner = threading.Thread(target=spin)
        spinner.start()
        try:
            with span("sleeper") as sp:
                stop.wait(0.2)
        finally:
            stop.set()
            spinner.join(timeout=10)
        assert not spinner.is_alive()
        assert sp.wall_seconds >= 0.15
        assert sp.cpu_seconds < 0.5 * sp.wall_seconds

    def test_reset_drops_spans_not_the_flag(self):
        set_tracing(True)
        with span("once"):
            pass
        assert [r.name for r in get_trace()] == ["once"]
        reset_trace()
        assert get_trace() == []
        assert tracing_enabled()

    def test_render_trace(self):
        set_tracing(True)
        with span("build", dataset="toy") as sp:
            sp.count("entries", 5)
            with span("wave"):
                pass
        text = render_trace(title="trace (test)")
        assert text.startswith("trace (test)")
        assert "build" in text and "dataset=toy" in text and "entries=5" in text
        assert "\n    wave" in text  # child indented under root
        assert "(no spans recorded)" in render_trace([], title="empty")

    def test_jsonl_parent_links(self, tmp_path):
        set_tracing(True)
        with span("root"):
            with span("child"):
                pass
        records = [json.loads(line) for line in trace_to_jsonl().splitlines()]
        by_name = {r["name"]: r for r in records}
        assert by_name["root"]["parent_id"] is None
        assert by_name["child"]["parent_id"] == by_name["root"]["id"]
        out = tmp_path / "trace.jsonl"
        write_jsonl(str(out))
        assert len(out.read_text().strip().splitlines()) == 2


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7)
        assert reg.counter("c").value == 3.5
        assert reg.gauge("g").value == 7.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_histogram_validates_construction(self):
        with pytest.raises(ValueError):
            Histogram("h", lo=0.0)
        with pytest.raises(ValueError):
            Histogram("h", lo=1.0, hi=0.5)

    def test_histogram_quantiles_are_accurate(self):
        hist = Histogram("lat")
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-7.0, sigma=1.0, size=5000)
        for value in samples:
            hist.observe(float(value))
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            estimate = hist.quantile(q)
            # log-bucket resolution: within one decade/10 of the true value
            assert abs(math.log10(estimate) - math.log10(exact)) < 0.15
        assert hist.count == 5000
        assert hist.quantile(0.0) == pytest.approx(float(samples.min()))
        assert hist.quantile(1.0) == pytest.approx(float(samples.max()))

    def test_histogram_weighted_observe(self):
        hist = Histogram("batch")
        hist.observe(0.001, count=99)
        hist.observe(10.0)
        assert hist.count == 100
        assert hist.total == pytest.approx(0.099 + 10.0)
        assert hist.p50 == pytest.approx(0.001, rel=0.3)
        assert hist.p99 <= 10.0
        hist.observe(1.0, count=0)  # non-positive weights are ignored
        assert hist.count == 100

    def test_histogram_empty_and_bounds(self):
        hist = Histogram("empty")
        assert hist.quantile(0.5) == 0.0
        assert hist.snapshot()["count"] == 0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_snapshot_render_reset(self):
        reg = MetricsRegistry()
        reg.counter("engine.queries").inc(10)
        reg.histogram("engine.lat").observe(0.01)
        reg.gauge("build.k").set(8)
        snap = reg.snapshot()
        assert snap["engine.queries"] == 10
        assert snap["engine.lat"]["count"] == 1
        text = reg.render()
        assert "engine.queries" in text and "p95=" in text
        assert json.loads(reg.to_json())["build.k"] == 8.0
        reg.reset(prefix="engine.")
        assert reg.names() == ["build.k"]
        reg.reset()
        assert reg.names() == []
        assert "(no metrics recorded)" in reg.render()

    def test_metrics_flag(self):
        assert not metrics_enabled()
        set_metrics(True)
        assert metrics_enabled()
        set_metrics(False)
        assert not metrics_enabled()

    def test_process_registry_is_shared(self):
        assert registry() is registry()
        assert isinstance(registry().counter("test_obs.shared"), Counter)
        assert isinstance(registry().gauge("test_obs.gauge"), Gauge)
        registry().reset(prefix="test_obs.")


# ----------------------------------------------------------------------
# Engine aggregate backed by the registry
# ----------------------------------------------------------------------
class TestEngineAggregate:
    @pytest.fixture
    def oracle(self):
        graph = labeled_erdos_renyi(30, 90, num_labels=3, seed=1)
        return PowCovIndex(graph, [0, 1, 2, 3]).build()

    def test_merge_snapshot_round_trip(self, oracle):
        """Sessions count into ``engine.*`` as they run: two sessions'
        counters sum to the registry's, with nothing published."""
        registry().reset(prefix="engine.")
        first, second = QuerySession(oracle), QuerySession(oracle)
        first.run([(0, 5, 1), (0, 5, 1), (2, 7, 3)])
        second.run([(0, 5, 1)])
        second.run([(0, 5, 1), (4, 9, 6)])
        for name in ("queries", "cache_hits", "cache_misses", "masks_planned"):
            total = first.stats.counters[name] + second.stats.counters[name]
            assert registry().counter(f"engine.{name}").value == total, name
        assert registry().counter("engine.queries").value == 6
        assert registry().counter("engine.cache_hits").value == 1

        # A reset starts the registry's counts from zero; the session
        # writes into the fresh counters, and keeps its own running totals.
        registry().reset(prefix="engine.")
        first.run([(0, 5, 1), (8, 1, 2)])
        assert registry().counter("engine.queries").value == 2
        assert registry().counter("engine.cache_hits").value == 1
        assert registry().counter("engine.cache_misses").value == 1
        assert first.stats.counters["queries"] == 5
        assert first.stats.counters["cache_misses"] == 4
        registry().reset(prefix="engine.")

    def test_snapshot_skips_structured_engine_metrics(self, oracle):
        """The CLI's engine footer renders the ``engine.*`` counters and the
        hit rate, and leaves the latency histograms out."""
        registry().reset(prefix="engine.")
        session = QuerySession(oracle)
        session.run([(0, 5, 1), (0, 5, 1)])
        session.run([(0, 5, 1)])
        registry().histogram("engine.query_seconds.powcov").observe(0.001)
        text = render_engine_stats()
        assert "query_seconds" not in text
        rows = dict(line.split() for line in text.splitlines()[1:])
        assert rows["queries"] == "3" and "queries_total" not in rows
        assert rows["cache_hits"] == "1" and rows["cache_misses"] == "2"
        assert rows["cache_hit_rate"] == "33.3%"
        registry().reset(prefix="engine.")


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
class TestProfiling:
    def test_disabled_is_noop(self, tmp_path):
        set_profiling(False, directory=str(tmp_path))
        with profile_phase("nothing"):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_enabled_writes_artifacts(self, tmp_path):
        set_profiling(True, directory=str(tmp_path))
        with profile_phase("unit test/phase"):
            sum(range(1000))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "profile-unit_test_phase.pstats",
            "profile-unit_test_phase.txt",
        ]
        text = (tmp_path / "profile-unit_test_phase.txt").read_text()
        assert "tracemalloc:" in text and "cumulative" in text

    def test_phases_do_not_nest(self, tmp_path):
        set_profiling(True, directory=str(tmp_path))
        with profile_phase("outer"):
            with profile_phase("inner"):
                pass
        names = {p.name for p in tmp_path.iterdir()}
        assert "profile-outer.pstats" in names
        assert not any("inner" in name for name in names)

    def test_env_var_enables(self, tmp_path, monkeypatch):
        set_profiling(False, directory=str(tmp_path))
        monkeypatch.setenv("REPRO_PROFILE", "1")
        with profile_phase("via-env"):
            pass
        assert (tmp_path / "profile-via-env.pstats").exists()
