"""Per-layer tracing from outside the program.

:func:`install` wraps public functions of ``repro.serve``, ``repro.engine``,
``repro.kernels``, ``repro.core``, ``repro.store`` and ``repro.graph``
where their callers look them up (a module attribute or a class method),
so the program itself is unchanged.  Each wrapped call records a span —
name, start, end and parent — kept in memory until :meth:`Tracer.table`
folds them; the innermost kernel calls only add to a time and call
counter, to keep the overhead of per-query calls small.  A span's parent
is the span active in the same thread or asyncio task when it started.
Self time is a span's duration minus that of its child spans.

:func:`layer_metrics` turns a folded table into the per-layer metric
names listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._lock = threading.Lock()
        self._seen_sessions: set[int] = set()

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    # -- wrapper factories ---------------------------------------------
    def span(
        self, name: str, fn: Callable[..., Any],
        hook: Callable[..., None] | None = None,
        before: Callable[..., Any] | None = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so every call records one span named ``name``.

        ``before(*args)`` runs first and its value reaches
        ``hook(state, result, duration_ns, *args)``, which runs after.
        """
        current, spans, ids = self._current, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(*args, **kwargs) if before else None
            parent = current.get()
            span_id = next(ids)
            token = current.set(span_id)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                current.reset(token)
                spans.append((span_id, name, start, end, parent))
            if hook:
                hook(state, result, end - start, *args, **kwargs)
            return result

        return wrapper

    def async_span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        current, spans, ids = self._current, self.spans, self._ids

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = current.get()
            span_id = next(ids)
            token = current.set(span_id)
            start = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _now()
                current.reset(token)
                spans.append((span_id, name, start, end, parent))

        return wrapper

    def leaf(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count calls and time only: no span (hot innermost calls)."""
        counts, lock = self.counts, self._lock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                with lock:
                    counts[name + ".ns"] += elapsed
                    counts[name + ".calls"] += 1

        return wrapper

    # -- folding ---------------------------------------------------------
    def table(self) -> dict[str, Any]:
        """Per span name: calls, total and self nanoseconds."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        submit_ns: defaultdict[int, int] = defaultdict(int)
        for span_id, name, start, end, parent in self.spans:
            if parent:
                child_ns[parent] += end - start
                if name == "batcher.submit":
                    submit_ns[parent] += end - start
        rows: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _parent in self.spans:
            row = rows.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[span_id]
            if name == "serve.handle_query":
                row.setdefault("minus_submit_ns", 0)
                row["minus_submit_ns"] += end - start - submit_ns[span_id]
        return {"spans": rows, "counts": dict(self.counts)}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.table()))


def _kind_of(graph: Any) -> str:
    delta = getattr(graph, "applied_delta", None)
    if delta is None:
        return "other"
    if delta.insertions:
        return "insert"
    if delta.deletions:
        return "delete"
    return "relabel"


def install(tracer: Tracer) -> None:
    """Install every layer wrapper into the imported ``repro`` modules."""
    import repro.core.chromland.index as chromland_index
    import repro.core.dynamic as dynamic
    import repro.core.powcov.spminimal as spminimal
    import repro.core.powcov.waves as waves
    import repro.engine.executors as executors
    import repro.engine.session as session_mod
    import repro.serve.__main__ as serve_main
    import repro.serve.app as app
    import repro.serve.batching as batching
    import repro.serve.registry as registry
    from repro.core.chromland import ChromLandIndex
    from repro.core.powcov import PowCovIndex
    from repro.kernels import resolve_kernel
    from repro.store.cache import IndexStore

    add = tracer.add

    # repro.serve
    app.ServeApp.handle_query = tracer.async_span(
        "serve.handle_query", app.ServeApp.handle_query
    )
    app.json_response_bytes = tracer.span("serve.encode", app.json_response_bytes)
    batching.MicroBatcher.submit = tracer.async_span(
        "batcher.submit", batching.MicroBatcher.submit
    )
    flush_now = batching.MicroBatcher.flush_now

    def counted_flush(self: Any) -> None:
        if self.pending_queries:
            add("batcher.flushes")
            add("batcher.flushed_queries", self.pending_queries)
        flush_now(self)

    batching.MicroBatcher.flush_now = counted_flush
    register_loader = registry.GraphRegistry.register_loader

    def traced_register_loader(self: Any, name: str, kind: str, loader: Any) -> None:
        register_loader(self, name, kind, tracer.span("registry.load", loader))

    registry.GraphRegistry.register_loader = traced_register_loader
    def after_delta(_s: Any, _r: Any, _ns: int, _self: Any, _name: str, delta: Any) -> None:
        kind = "insert" if delta.insertions else "delete" if delta.deletions else "relabel"
        add(f"deltas.{kind}")

    registry.GraphRegistry.apply_delta = tracer.span(
        "registry.apply_delta", registry.GraphRegistry.apply_delta, after_delta
    )
    registry.apply_delta = tracer.span("delta.apply", registry.apply_delta)

    # repro.core.dynamic
    def after_repair(_state: Any, stats: Any, ns: int, index: Any, new_graph: Any) -> None:
        add(f"dynamic.repair_ns.{_kind_of(new_graph)}", ns)
        add("dynamic.landmarks_resweep", stats.landmarks_resweep)
        add("dynamic.full_rebuilds", int(stats.full_rebuild))

    dynamic.repair_index = tracer.span("dynamic.repair", dynamic.repair_index, after_repair)

    # repro.engine
    def before_run(self: Any, queries: Any) -> tuple[int, ...]:
        c = self.stats.counters
        return (
            c.get("cache_hits", 0), c.get("cache_misses", 0),
            c.get("plan_cache_hits", 0), c.get("masks_planned", 0),
        )

    def after_run(state: tuple[int, ...], _result: Any, ns: int, self: Any, queries: Any) -> None:
        c = self.stats.counters
        add("engine.queries", len(queries))
        add("engine.cache_hits", c.get("cache_hits", 0) - state[0])
        add("engine.cache_misses", c.get("cache_misses", 0) - state[1])
        add("engine.plan_cache_hits", c.get("plan_cache_hits", 0) - state[2])
        add("engine.masks_planned", c.get("masks_planned", 0) - state[3])
        if id(self) not in tracer._seen_sessions:
            tracer._seen_sessions.add(id(self))
            add("engine.first_runs")
            add("engine.first_run_ns", ns)

    session_mod.QuerySession.run = tracer.span(
        "engine.run", session_mod.QuerySession.run, after_run, before_run
    )

    def before_rebind(self: Any, oracle: Any, repair: bool = True) -> tuple[int, int]:
        return (
            self.cache_info()["cached_answers"],
            self.stats.counters.get("rebind_answers_migrated", 0),
        )

    def after_rebind(state: tuple[int, int], _r: Any, _ns: int, self: Any, *_a: Any, **_k: Any) -> None:
        add("engine.rebind_cached", state[0])
        add(
            "engine.rebind_kept",
            self.stats.counters.get("rebind_answers_migrated", 0) - state[1],
        )

    session_mod.QuerySession.rebind = tracer.span(
        "engine.rebind", session_mod.QuerySession.rebind, after_rebind, before_rebind
    )
    session_mod.plan_batch = tracer.span("engine.plan", session_mod.plan_batch)
    for cls in (
        executors.PowCovExecutor, executors.ChromLandExecutor,
        executors.NaiveExecutor, executors.ScalarLoopExecutor,
    ):
        if "prepare_mask" in cls.__dict__:
            cls.prepare_mask = tracer.span("engine.prepare_mask", cls.prepare_mask)
        if "execute_group" in cls.__dict__:
            def after_group(_s: Any, _r: Any, ns: int, self: Any, _plan: Any, group: Any) -> None:
                name = self.oracle.name
                add(f"engine.exec_ns.{name}", ns)
                add(f"engine.exec_queries.{name}", len(group))

            cls.execute_group = tracer.span(
                "engine.execute_group", cls.execute_group, after_group
            )

    # repro.kernels: the resolved backend's methods, on the memoized instance
    backend = resolve_kernel(None)
    for method in ("msbfs_bitset", "msbfs_sparse"):
        setattr(backend, method, tracer.leaf("kernels.msbfs", getattr(backend, method)))
    backend.one_removed_pass = tracer.leaf("kernels.one_removed", backend.one_removed_pass)
    backend.aux_dijkstra = tracer.leaf("kernels.aux_dijkstra", backend.aux_dijkstra)

    # repro.graph.traversal, where the builders look it up
    for module, names in (
        (spminimal, ("constrained_bfs", "constrained_bfs_tree")),
        (waves, ("batched_constrained_bfs",)),
        (chromland_index, ("batched_constrained_bfs",)),
        (dynamic, ("batched_constrained_bfs",)),
    ):
        for name in names:
            setattr(module, name, tracer.span("traversal.bfs", getattr(module, name)))

    # repro.landmarks and repro.core builds
    serve_main.select_landmarks = tracer.span(
        "landmarks.select", serve_main.select_landmarks
    )

    def after_powcov(_s: Any, index: Any, _ns: int, *_a: Any, **_k: Any) -> None:
        add("powcov.builds")
        add("powcov.entries", index.index_size_entries())
        add("powcov.sssp", sum(r.num_sssp for r in index.per_landmark))

    PowCovIndex.build = tracer.span("powcov.build", PowCovIndex.build, after_powcov)
    ChromLandIndex.build = tracer.span("chromland.build", ChromLandIndex.build)

    # repro.store
    IndexStore.save = tracer.span("store.save", IndexStore.save)
    IndexStore.load = tracer.span("store.open", IndexStore.load)


#: Per-layer metric names and units, in the order BENCHMARK.json lists them.
LAYER_UNITS: dict[str, str] = {
    "serve.handle_us": "us",
    "serve.encode_us": "us",
    "batcher.wait_us": "us",
    "batcher.queries_per_flush": "count",
    "registry.load_ms": "ms",
    "registry.apply_delta_ms": "ms",
    "engine.run_us_per_query": "us",
    "engine.plan_us": "us",
    "engine.prepare_mask_us": "us",
    "engine.plan_cache_hit_ratio": "ratio",
    "engine.exec_us_per_query.powcov": "us",
    "engine.exec_us_per_query.chromland": "us",
    "engine.answer_cache_hit_ratio": "ratio",
    "engine.rebind_ms": "ms",
    "engine.answers_kept_ratio": "ratio",
    "engine.first_run_ms": "ms",
    "kernels.aux_dijkstra_us": "us",
    "kernels.aux_dijkstra_calls": "count",
    "kernels.msbfs_ms": "ms",
    "kernels.msbfs_calls": "count",
    "kernels.one_removed_ms": "ms",
    "traversal.bfs_ms": "ms",
    "traversal.bfs_calls": "count",
    "landmarks.select_ms": "ms",
    "powcov.build_s": "s",
    "chromland.build_ms": "ms",
    "powcov.entries": "count",
    "powcov.sssp": "count",
    "store.save_s": "s",
    "store.open_ms": "ms",
    "delta.apply_ms": "ms",
    "dynamic.repair_ms.insert": "ms",
    "dynamic.repair_ms.delete": "ms",
    "dynamic.repair_ms.relabel": "ms",
    "dynamic.landmarks_resweep": "count",
    "dynamic.full_rebuilds": "count",
    "trace.overhead_wall_pct": "%",
    "trace.overhead_cpu_pct": "%",
}


def merge(tables: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum several folded tables (e.g. the server's and this process's)."""
    spans: dict[str, dict[str, float]] = {}
    counts: defaultdict[str, float] = defaultdict(float)
    for table in tables:
        for name, row in table["spans"].items():
            into = spans.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
        for name, value in table["counts"].items():
            counts[name] += value
    return {"spans": spans, "counts": dict(counts)}


def layer_metrics(table: dict[str, Any], units_of_work: int) -> dict[str, float]:
    """Fold a table into the per-layer metrics (0 where a layer is unused).

    Times are means per call unless the name says per query; ``*_calls``,
    ``powcov.*`` and ``dynamic.*`` counts are per unit of work of the
    workload (request, delta or build pass), given as ``units_of_work``.
    """
    spans, counts = table["spans"], table["counts"]
    units = max(units_of_work, 1)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def mean(name: str, scale: float, key: str = "total_ns") -> float:
        row = spans.get(name)
        return ratio(row[key], row["calls"]) / scale if row else 0.0

    def total(name: str) -> float:
        row = spans.get(name)
        return row["total_ns"] if row else 0.0

    def calls(name: str) -> float:
        row = spans.get(name)
        return row["calls"] if row else 0.0

    c = counts.get
    run_mean_us = mean("engine.run", 1e3)
    submit_mean_us = mean("batcher.submit", 1e3)
    repairs_by_kind = {
        kind: ratio(c(f"dynamic.repair_ns.{kind}", 0.0), 1e6)
        for kind in ("insert", "delete", "relabel")
    }
    deltas = calls("registry.apply_delta")
    out = {
        "serve.handle_us": mean("serve.handle_query", 1e3, "minus_submit_ns"),
        "serve.encode_us": mean("serve.encode", 1e3),
        "batcher.wait_us": max(submit_mean_us - run_mean_us, 0.0) if submit_mean_us else 0.0,
        "batcher.queries_per_flush": ratio(
            c("batcher.flushed_queries", 0.0), c("batcher.flushes", 0.0)
        ),
        "registry.load_ms": mean("registry.load", 1e6),
        "registry.apply_delta_ms": mean("registry.apply_delta", 1e6),
        "engine.run_us_per_query": ratio(total("engine.run"), c("engine.queries", 0.0)) / 1e3,
        "engine.plan_us": mean("engine.plan", 1e3),
        "engine.prepare_mask_us": mean("engine.prepare_mask", 1e3),
        "engine.plan_cache_hit_ratio": ratio(
            c("engine.plan_cache_hits", 0.0),
            c("engine.plan_cache_hits", 0.0) + c("engine.masks_planned", 0.0),
        ),
        "engine.answer_cache_hit_ratio": ratio(
            c("engine.cache_hits", 0.0),
            c("engine.cache_hits", 0.0) + c("engine.cache_misses", 0.0),
        ),
        "engine.rebind_ms": mean("engine.rebind", 1e6),
        "engine.answers_kept_ratio": ratio(
            c("engine.rebind_kept", 0.0), c("engine.rebind_cached", 0.0)
        ),
        "engine.first_run_ms": ratio(
            c("engine.first_run_ns", 0.0), c("engine.first_runs", 0.0)
        ) / 1e6,
        "kernels.aux_dijkstra_us": ratio(
            c("kernels.aux_dijkstra.ns", 0.0), c("kernels.aux_dijkstra.calls", 0.0)
        ) / 1e3,
        "kernels.aux_dijkstra_calls": c("kernels.aux_dijkstra.calls", 0.0) / units,
        "kernels.msbfs_ms": ratio(
            c("kernels.msbfs.ns", 0.0), c("kernels.msbfs.calls", 0.0)
        ) / 1e6,
        "kernels.msbfs_calls": c("kernels.msbfs.calls", 0.0) / units,
        "kernels.one_removed_ms": ratio(
            c("kernels.one_removed.ns", 0.0), c("kernels.one_removed.calls", 0.0)
        ) / 1e6,
        "traversal.bfs_ms": mean("traversal.bfs", 1e6),
        "traversal.bfs_calls": calls("traversal.bfs") / units,
        "landmarks.select_ms": mean("landmarks.select", 1e6),
        "powcov.build_s": mean("powcov.build", 1e9),
        "chromland.build_ms": mean("chromland.build", 1e6),
        "powcov.entries": ratio(c("powcov.entries", 0.0), c("powcov.builds", 0.0)),
        "powcov.sssp": ratio(c("powcov.sssp", 0.0), c("powcov.builds", 0.0)),
        "store.save_s": mean("store.save", 1e9),
        "store.open_ms": mean("store.open", 1e6),
        "delta.apply_ms": mean("delta.apply", 1e6),
        "dynamic.landmarks_resweep": ratio(c("dynamic.landmarks_resweep", 0.0), deltas),
        "dynamic.full_rebuilds": ratio(c("dynamic.full_rebuilds", 0.0), deltas),
    }
    for oracle in ("powcov", "chromland"):
        out[f"engine.exec_us_per_query.{oracle}"] = ratio(
            c(f"engine.exec_ns.{oracle}", 0.0), c(f"engine.exec_queries.{oracle}", 0.0)
        ) / 1e3
    for kind, ms in repairs_by_kind.items():
        out[f"dynamic.repair_ms.{kind}"] = ratio(ms, c(f"deltas.{kind}", 0.0))
    return out
