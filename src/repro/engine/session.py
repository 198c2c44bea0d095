"""The serving-side entry point: a cached, instrumented query session.

A :class:`QuerySession` wraps any :class:`~repro.core.types.DistanceOracle`
with

* an **answer cache** — an LRU keyed by ``(graph_fingerprint, source,
  target, mask)`` (``cache_size`` entries, 0 disables it).  The
  fingerprint component makes cached answers self-identifying: a session
  rebound (:meth:`QuerySession.rebind`) to an oracle over a *different*
  graph can never serve a stale distance, and rebinding back revalidates
  the surviving entries instead of recomputing them;
* a **plan cache** — an LRU over constraint masks holding whatever the
  oracle's executor precomputes per mask (PowCov: resolved per-vertex
  landmark rows; ChromLand: the usable filter + the masked landmark
  graph, closed once the mask has been asked enough queries);
* an :class:`~repro.engine.instrument.Instrumentation` of counters and
  stage timers, exposed as ``session.stats``.

``run()`` takes a batch (``Query`` objects or ``(s, t, mask)`` triples),
serves what it can from the answer cache, groups the misses by mask, and
executes each group vectorized.  Answers are bit-identical to the scalar
``oracle.query`` loop — property-tested in ``tests/test_engine.py`` — so
sessions are a pure serving-layer optimization.

``execute_batch`` is the session-free one-shot used by
``DistanceOracle.batch_query``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence
from time import perf_counter
from typing import Any

import numpy as np

from ..core.types import DistanceOracle
from ..graph.fingerprint import graph_fingerprint
from ..obs.metrics import metrics_enabled
from ..obs.metrics import registry as _metrics_registry
from ..obs.trace import span
from .executors import OracleExecutor, executor_for
from .instrument import Instrumentation, format_stats, merge_global
from .plan import as_triple, plan_batch, to_triple_array

__all__ = ["QuerySession", "execute_batch"]


def _count_logical_queries(n: int) -> None:
    """Bump the process-wide logical-query counter exactly once per query.

    ``engine.queries_total`` counts queries *submitted for serving* — the
    number the user asked, independent of how a batch later splits into
    mask groups, how many land in the answer cache, or how often a
    session's cumulative stats are (re-)published.  It is the counter the
    serving layer's throughput accounting and the CLI stats footer report,
    and the regression tests pin it against known streams.
    """
    if n:
        _metrics_registry().counter("engine.queries_total").inc(n)


class QuerySession:
    """A cached, instrumented, batch-native view of one oracle.

    Parameters
    ----------
    oracle:
        Any built oracle (index or baseline).
    cache_size:
        Answer-cache capacity in ``(s, t, mask)`` entries; 0 disables
        answer caching (batches are still executed vectorized).
    plan_cache_size:
        Number of distinct masks whose prepared plans are retained.
    audit:
        Debug flag (``EngineConfig.audit``): run the
        :mod:`repro.analysis.audit` invariant auditors against the oracle
        before serving anything, raising
        :class:`~repro.analysis.audit.AuditError` on a violation.  Slow —
        the auditors re-derive distances with constrained BFS.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        cache_size: int = 4096,
        plan_cache_size: int = 128,
        audit: bool = False,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        if audit:
            # Local import: the auditors pull in the index packages, which
            # the engine otherwise only needs lazily.
            from ..analysis.audit import assert_clean, audit_oracle

            assert_clean(audit_oracle(oracle))
        self.oracle = oracle
        self.executor: OracleExecutor[Any, Any] = executor_for(oracle)
        self.cache_size = cache_size
        self.plan_cache_size = plan_cache_size
        self.stats = Instrumentation()
        self._fingerprint = self._oracle_fingerprint(oracle)
        self._check_stored_fingerprint(oracle)
        self._answers: OrderedDict[tuple[int, int, int, int], float] = OrderedDict()
        self._plans: OrderedDict[int, Any] = OrderedDict()
        # Snapshot of what publish_stats() already folded into the global
        # aggregate, so repeated publishes contribute deltas, never the
        # whole cumulative counters again.
        self._published_counters: dict[str, int] = {}
        self._published_seconds: dict[str, float] = {}

    @staticmethod
    def _oracle_fingerprint(oracle: DistanceOracle) -> int:
        return int(graph_fingerprint(oracle.graph))

    def _check_stored_fingerprint(self, oracle: DistanceOracle) -> None:
        """Reject oracles loaded from an index file of a different graph.

        Indexes opened by :mod:`repro.store` carry the fingerprint
        embedded in their file as ``stored_fingerprint``; the loaders
        verify it against the graph they were given, and this re-check
        at session-open time closes the remaining gap — an oracle whose
        graph was swapped *after* loading (or a hand-built oracle with a
        stale attribute) can never serve.
        """
        stored = getattr(oracle, "stored_fingerprint", None)
        if stored is not None and int(stored) != self._fingerprint:
            from ..store.format import FormatError

            raise FormatError(
                "oracle was loaded from an index file built for a different "
                "graph (stored fingerprint does not match the bound graph)"
            )

    def rebind(self, oracle: DistanceOracle, repair: bool = True) -> None:
        """Point this session at another oracle, keeping the answer cache.

        The plan cache is dropped (plans hold oracle-internal arrays), but
        answers survive: their keys carry the graph fingerprint, so entries
        from a different graph simply stop matching, and rebinding back to
        an oracle over the original graph makes them hits again.

        When the new oracle's graph is the *direct child version* of the
        currently bound graph (it carries ``applied_delta`` and its
        ``parent_fingerprint`` matches), ``repair=True`` additionally
        migrates every cached answer whose constraint mask avoids the
        delta's touched labels: such a mask sees the identical
        label-restricted subgraph on both versions, so the answer is
        bit-identical on the new graph and is re-keyed instead of going
        cold.  Answers whose mask intersects the touched labels keep their
        old-fingerprint keys (they stop matching — the invalidate path).
        ``repair=False`` forces the historical invalidate-everything
        behavior.
        """
        previous_fingerprint = self._fingerprint
        self.oracle = oracle
        self.executor = executor_for(oracle)
        self._fingerprint = self._oracle_fingerprint(oracle)
        self._check_stored_fingerprint(oracle)
        self._plans.clear()
        if repair and self._fingerprint != previous_fingerprint:
            self._migrate_answers(oracle, previous_fingerprint)

    def _migrate_answers(
        self, oracle: DistanceOracle, previous_fingerprint: int
    ) -> None:
        """Re-key still-valid cached answers across one graph version."""
        graph = oracle.graph
        delta = getattr(graph, "applied_delta", None)
        parent = getattr(graph, "parent_fingerprint", None)
        if delta is None or parent is None or int(parent) != previous_fingerprint:
            return
        touched = delta.touched_label_mask()
        migrated = 0
        for key in list(self._answers):
            fingerprint, source, target, mask = key
            if fingerprint != previous_fingerprint or mask & touched:
                continue
            value = self._answers.pop(key)
            self._answers[(self._fingerprint, source, target, mask)] = value
            migrated += 1
        self.stats.count("rebind_answers_migrated", migrated)
        if metrics_enabled():
            _metrics_registry().counter("engine.rebind_migrated").inc(migrated)

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def _cache_get(self, key: tuple[int, int, int, int]) -> float | None:
        value = self._answers.get(key)
        if value is not None:
            self._answers.move_to_end(key)
        return value

    def _cache_put(self, key: tuple[int, int, int, int], value: float) -> None:
        if self.cache_size == 0:
            return
        if key in self._answers:
            self._answers.move_to_end(key)
        self._answers[key] = value
        while len(self._answers) > self.cache_size:
            self._answers.popitem(last=False)
            self.stats.count("cache_evictions")

    def _plan_for(self, label_mask: int) -> Any:
        plan = self._plans.get(label_mask)
        if plan is not None or label_mask in self._plans:
            self._plans.move_to_end(label_mask)
            self.stats.count("plan_cache_hits")
            return plan
        plan = self.executor.prepare_mask(label_mask)
        self.stats.count("masks_planned")
        self._plans[label_mask] = plan
        while len(self._plans) > self.plan_cache_size:
            self._plans.popitem(last=False)
        return plan

    def cache_info(self) -> dict[str, int | float]:
        """Answer/plan cache occupancy and hit statistics."""
        counters = self.stats.counters
        return {
            "cache_size": self.cache_size,
            "cached_answers": len(self._answers),
            "cached_plans": len(self._plans),
            "hits": counters.get("cache_hits", 0),
            "misses": counters.get("cache_misses", 0),
            "evictions": counters.get("cache_evictions", 0),
            "hit_rate": self.stats.hit_rate,
        }

    def clear_cache(self) -> None:
        self._answers.clear()
        self._plans.clear()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def query(self, source: int, target: int, label_mask: int) -> float:
        """Single cached query (scalar path on miss).

        Checks the query domain like :meth:`run` before the cache probe,
        so an out-of-domain query raises ``ValueError`` and is never
        cached.
        """
        graph = self.oracle.graph
        to_triple_array(
            [(source, target, label_mask)], graph.num_labels, graph.num_vertices
        )
        self.stats.count("queries")
        _count_logical_queries(1)
        key = (self._fingerprint, source, target, label_mask)
        cached = self._cache_get(key)
        if cached is not None:
            self.stats.count("cache_hits")
            return cached
        self.stats.count("cache_misses")
        self.stats.count("executed")
        value = self.oracle.query(source, target, label_mask)
        self._cache_put(key, value)
        return value

    def run(self, queries: Sequence[Any] | np.ndarray) -> list[float]:
        """Answer a batch through the planned, vectorized path.

        Accepts ``Query`` objects, ``LabeledQuery`` objects, plain
        ``(source, target, mask)`` triples, or an ``(n, 3)`` int array;
        returns answers in submission order, bit-identical to the scalar
        loop.  A mask outside the graph's label domain, or a vertex
        outside ``[0, num_vertices)``, raises ``ValueError``.
        """
        with self.stats.timed("total_seconds"), span(
            "engine.run", oracle=self.oracle.name
        ) as run_span:
            graph = self.oracle.graph
            num_labels, num_vertices = graph.num_labels, graph.num_vertices
            if not self.cache_size:
                arr = to_triple_array(queries, num_labels, num_vertices)
                self.stats.count("queries", len(arr))
                _count_logical_queries(len(arr))
                self.stats.count("batches")
                run_span.count("queries", len(arr))
                if len(arr) == 0:
                    return []
                self.stats.count("cache_misses", len(arr))
                return self._execute(arr).tolist()
            # Cached path: probe with the submitted tuples directly (no
            # array round-trip on an all-hits batch).  Anything but a
            # plain triple of ints goes through as_triple first, so a
            # float field raises rather than hitting the key of its int.
            # An array is checked whole and probed by its int rows.
            if isinstance(queries, np.ndarray):
                queries = list(
                    map(tuple, to_triple_array(queries, num_labels, num_vertices).tolist())
                )
            else:
                queries = [
                    q
                    if type(q) is tuple
                    and len(q) == 3
                    and type(q[0]) is type(q[1]) is type(q[2]) is int
                    else as_triple(q)
                    for q in queries
                ]
            n = len(queries)
            self.stats.count("queries", n)
            _count_logical_queries(n)
            self.stats.count("batches")
            run_span.count("queries", n)
            if n == 0:
                return []
            fingerprint = self._fingerprint
            answers: list[float | None] = [None] * n
            miss_positions: list[int] = []
            keys: list[tuple[int, int, int, int]] = []
            for i, (s, t, mask) in enumerate(queries):
                key = (fingerprint, s, t, mask)
                keys.append(key)
                cached = self._cache_get(key)
                if cached is None:
                    miss_positions.append(i)
                else:
                    answers[i] = cached
            self.stats.count("cache_hits", n - len(miss_positions))
            self.stats.count("cache_misses", len(miss_positions))
            run_span.count("cache_hits", n - len(miss_positions))
            run_span.count("cache_misses", len(miss_positions))
            if miss_positions:
                misses = [queries[i] for i in miss_positions]
                values = self._execute(
                    to_triple_array(misses, num_labels, num_vertices)
                )
                for i, value in zip(miss_positions, values.tolist()):
                    answers[i] = value
                    self._cache_put(keys[i], value)
            return answers  # type: ignore[return-value]

    def _execute(self, arr: np.ndarray) -> np.ndarray:
        """Plan + execute an ``(n, 3)`` miss array; answers by position."""
        self.stats.count("executed", len(arr))
        with self.stats.timed("plan_seconds"):
            plan = plan_batch(arr)
        out = np.empty(len(arr), dtype=np.float64)
        record_latency = metrics_enabled()
        latency = (
            _metrics_registry().histogram(f"engine.query_seconds.{self.oracle.name}")
            if record_latency
            else None
        )
        with self.stats.timed("execute_seconds"):
            for group in plan.groups:
                self.stats.count("groups")
                mask_plan = self._plan_for(group.label_mask)
                if latency is not None:
                    started = perf_counter()
                    out[group.positions] = self.executor.execute_group(
                        mask_plan, group
                    )
                    # One observation per mask group (per-query mean weighted
                    # by group size) keeps the hot loop allocation-free.
                    size = len(group.positions)
                    latency.observe((perf_counter() - started) / size, count=size)
                else:
                    out[group.positions] = self.executor.execute_group(
                        mask_plan, group
                    )
        return out

    def run_stream(
        self, stream: Iterable[Any], batch_size: int = 1024
    ) -> list[float]:
        """Drain an iterable of triples through ``run`` in batches."""
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        answers: list[float] = []
        batch: list[Any] = []
        for item in stream:
            batch.append(item)
            if len(batch) >= batch_size:
                answers.extend(self.run(batch))
                batch = []
        if batch:
            answers.extend(self.run(batch))
        return answers

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def format_stats(self) -> str:
        return format_stats(
            self.stats, title=f"engine session stats ({self.oracle.name})"
        )

    def publish_stats(self) -> None:
        """Fold this session's stats into the process-wide aggregate.

        Publishes the *delta* since the previous publish, so a long-lived
        session (the serving layer publishes periodically, and the stream
        harness publishes at the end of every run) can call this any
        number of times without double-counting: the aggregate always
        reflects each query exactly once.  Historically this merged the
        full cumulative counters every call, so a session published twice
        — e.g. once by ``run_stream_throughput`` and once by the CLI
        footer — inflated the footer's ``queries`` line 2x.
        """
        delta = Instrumentation()
        for name, value in self.stats.counters.items():
            published = self._published_counters.get(name, 0)
            if value != published:
                delta.count(name, value - published)
        for name, seconds in self.stats.seconds.items():
            published_s = self._published_seconds.get(name, 0.0)
            if seconds != published_s:
                delta.add_seconds(name, seconds - published_s)
        merge_global(delta)
        self._published_counters = dict(self.stats.counters)
        self._published_seconds = dict(self.stats.seconds)

    def __repr__(self) -> str:
        return (
            f"QuerySession({self.oracle.name}, cache_size={self.cache_size}, "
            f"cached={len(self._answers)})"
        )


def execute_batch(
    oracle: DistanceOracle, queries: Sequence[Any] | np.ndarray
) -> list[float]:
    """One-shot batch execution, no caches: plan, group, execute.

    This is what ``DistanceOracle.batch_query`` delegates to; results are
    bit-identical to ``[oracle.query(s, t, m) for s, t, m in queries]``.
    A mask outside the graph's label domain, or a vertex outside
    ``[0, num_vertices)``, raises ``ValueError``.
    """
    executor = executor_for(oracle)
    graph = oracle.graph
    plan = plan_batch(
        to_triple_array(queries, graph.num_labels, graph.num_vertices)
    )
    _count_logical_queries(plan.num_queries)
    out = np.empty(plan.num_queries, dtype=np.float64)
    for group in plan.groups:
        mask_plan = executor.prepare_mask(group.label_mask)
        out[group.positions] = executor.execute_group(mask_plan, group)
    return out.tolist()
