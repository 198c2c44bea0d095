"""The serving-side entry point: a cached, instrumented query session.

A :class:`QuerySession` wraps any :class:`~repro.core.types.DistanceOracle`
with

* an **answer cache** — an LRU keyed by ``(graph_fingerprint, source,
  target, mask)`` (``cache_size`` entries, 0 disables it).  The
  fingerprint component makes cached answers self-identifying: a session
  rebound (:meth:`QuerySession.rebind`) to an oracle over a *different*
  graph can never serve a stale distance, and rebinding back revalidates
  the surviving entries instead of recomputing them;
* a **plan cache** — an LRU over ``PLAN_CACHE_SIZE`` constraint masks
  holding whatever the oracle's executor precomputes per mask (PowCov:
  resolved per-vertex landmark rows; ChromLand: the usable filter + the
  masked landmark graph, closed once the mask has been asked enough
  queries);
* event counters: each cache hit, miss, eviction, planned mask and
  executed group is counted once, when it happens, in the session's
  ``stats.counters`` and in the registry's ``engine.<name>`` counter, so
  a live server's ``GET /metrics`` shows every session's traffic.  The
  ``engine.run`` span times each batch.

``run()`` takes a batch (``Query`` objects, ``(s, t, mask)`` triples or
an ``(n, 3)`` int array), serves what it can from the answer cache,
groups the misses by mask, and executes each group vectorized.  An array
is checked and keyed whole: one ``to_triple_array``, one ``.tolist()``,
one bulk probe (``map(cache.get, keys)``), the misses sliced out of the
array, and a fill that inserts every miss at once and evicts the excess
once.  A list, a single lookup above all, is probed one tuple at a time
and touches no numpy when it hits.  Either way the cache ends in the
LRU order, and with the hit/miss/eviction counts, of one probe and one
put per query.  Answers are bit-identical to the scalar
``oracle.query`` loop — property-tested in ``tests/test_engine.py`` — so
sessions are a pure serving-layer optimization.

``execute_batch`` is the session-free one-shot used by
``DistanceOracle.batch_query``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Sequence
from itertools import repeat
from time import perf_counter
from types import SimpleNamespace
from typing import Any

import numpy as np

from ..core.types import DistanceOracle
from ..graph.fingerprint import graph_fingerprint
from ..obs.metrics import metrics_enabled
from ..obs.metrics import registry as _metrics_registry
from ..obs.trace import span
from .executors import OracleExecutor, executor_for
from .plan import as_triple, plan_batch, to_triple_array

__all__ = ["QuerySession", "execute_batch"]

#: Distinct masks whose prepared plans a session retains.
PLAN_CACHE_SIZE = 128


class QuerySession:
    """A cached, instrumented, batch-native view of one oracle.

    Parameters
    ----------
    oracle:
        Any built oracle (index or baseline).
    cache_size:
        Answer-cache capacity in ``(s, t, mask)`` entries; 0 disables
        answer caching (batches are still executed vectorized).
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        cache_size: int = 4096,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.oracle = oracle
        self.executor: OracleExecutor[Any, Any] = executor_for(oracle)
        self.cache_size = cache_size
        # This session's own share of the engine.* registry counters.
        self.stats = SimpleNamespace(counters={})
        self._fingerprint = self._oracle_fingerprint(oracle)
        self._check_stored_fingerprint(oracle)
        self._answers: OrderedDict[tuple[int, int, int, int], float] = OrderedDict()
        self._plans: OrderedDict[int, Any] = OrderedDict()

    def _count(self, name: str, by: int = 1) -> None:
        """Count an engine event here and in the registry's ``engine.<name>``.

        The registry counter is looked up on every write rather than bound
        once, so after a ``registry().reset(prefix="engine.")`` this
        session counts from zero in a fresh counter instead of writing
        into the orphaned one.
        """
        counters = self.stats.counters
        counters[name] = counters.get(name, 0) + by
        _metrics_registry().counter("engine." + name).inc(by)

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

    def rebind(self, oracle: DistanceOracle) -> None:
        """Point this session at another oracle, keeping the answer cache.

        The plan cache is dropped (plans hold oracle-internal arrays), but
        answers survive: their keys carry the graph fingerprint, so entries
        from a different graph simply stop matching, and rebinding back to
        an oracle over the original graph makes them hits again.

        When the new oracle's graph is the *direct child version* of the
        currently bound graph (it carries ``applied_delta`` and its
        ``parent_fingerprint`` matches), it additionally migrates every
        cached answer whose constraint mask avoids the
        delta's touched labels: such a mask sees the identical
        label-restricted subgraph on both versions, so the answer is
        bit-identical on the new graph and is re-keyed instead of going
        cold.  Answers whose mask intersects the touched labels keep their
        old-fingerprint keys (they stop matching — the invalidate path).
        """
        previous_fingerprint = self._fingerprint
        self.oracle = oracle
        self.executor = executor_for(oracle)
        self._fingerprint = self._oracle_fingerprint(oracle)
        self._check_stored_fingerprint(oracle)
        self._plans.clear()
        if self._fingerprint != previous_fingerprint:
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
        self._count("rebind_answers_migrated", migrated)

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def _cache_get(self, key: tuple[int, int, int, int]) -> float | None:
        value = self._answers.get(key)
        if value is not None:
            self._answers.move_to_end(key)
        return value

    def _cache_put(self, key: tuple[int, int, int, int], value: float) -> None:
        if key in self._answers:
            self._answers.move_to_end(key)
        self._answers[key] = value
        while len(self._answers) > self.cache_size:
            self._answers.popitem(last=False)
            self._count("cache_evictions")

    def _cache_put_many(
        self, keys: list[tuple[int, int, int, int]], values: list[float]
    ) -> None:
        """``_cache_put`` of each miss in turn, evicting the excess once.

        Missed keys are absent from the cache, so when no key repeats,
        inserting them all and then dropping the oldest entries leaves the
        same entries, in the same order, after the same number of
        evictions as one put at a time.  A repeated key could have been
        evicted between its puts and counted twice, so such a batch is
        taken back out and put one key at a time.
        """
        answers = self._answers
        size = len(answers)
        answers.update(zip(keys, values))
        if len(answers) - size < len(keys):
            for key in keys:
                answers.pop(key, None)
            for key, value in zip(keys, values):
                self._cache_put(key, value)
            return
        excess = len(answers) - self.cache_size
        if excess > 0:
            deque(map(answers.popitem, repeat(False, excess)), maxlen=0)
            self._count("cache_evictions", excess)

    def _plan_for(self, label_mask: int) -> Any:
        plan = self._plans.get(label_mask)
        if plan is not None or label_mask in self._plans:
            self._plans.move_to_end(label_mask)
            self._count("plan_cache_hits")
            return plan
        plan = self.executor.prepare_mask(label_mask)
        self._count("masks_planned")
        self._plans[label_mask] = plan
        while len(self._plans) > PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return plan

    def cache_info(self) -> dict[str, int | float]:
        """Answer/plan cache occupancy and hit statistics."""
        counters = self.stats.counters
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        return {
            "cache_size": self.cache_size,
            "cached_answers": len(self._answers),
            "cached_plans": len(self._plans),
            "hits": hits,
            "misses": misses,
            "evictions": counters.get("cache_evictions", 0),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }

    def clear_cache(self) -> None:
        self._answers.clear()
        self._plans.clear()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def run(self, queries: Sequence[Any] | np.ndarray) -> list[float]:
        """Answer a batch through the planned, vectorized path.

        Accepts ``Query`` objects, ``LabeledQuery`` objects, plain
        ``(source, target, mask)`` triples, or an ``(n, 3)`` int array;
        returns answers in submission order, bit-identical to the scalar
        loop.  A mask outside the graph's label domain, or a vertex
        outside ``[0, num_vertices)``, raises ``ValueError``.
        """
        with span("engine.run", oracle=self.oracle.name) as run_span:
            graph = self.oracle.graph
            num_labels, num_vertices = graph.num_labels, graph.num_vertices
            if not self.cache_size:
                arr = to_triple_array(queries, num_labels, num_vertices)
                self._count("queries", len(arr))
                self._count("batches")
                run_span.count("queries", len(arr))
                if len(arr) == 0:
                    return []
                self._count("cache_misses", len(arr))
                return self._execute(arr).tolist()
            # Cached path.  The whole batch is probed before any answer
            # lands, so a triple repeated within a batch misses every time
            # it misses.
            fingerprint = self._fingerprint
            arr: np.ndarray | None = None
            miss_positions: list[int] | None = None
            if isinstance(queries, np.ndarray):
                arr = to_triple_array(queries, num_labels, num_vertices)
                keys = list(zip(repeat(fingerprint), *arr.T.tolist()))
                answers: list[float | None] = list(map(self._answers.get, keys))
                misses = answers.count(None)
                if misses < len(keys):
                    touch = self._answers.move_to_end
                    for key, value in zip(keys, answers):
                        if value is not None:
                            touch(key)
            else:
                # A list (a single lookup above all) is probed one tuple at
                # a time: no numpy on a hit, and no set-up a batch of one
                # would not pay back.  Anything but a plain triple of ints
                # goes through as_triple first, so a float field raises
                # rather than hitting the key of its int.
                queries = [
                    q
                    if type(q) is tuple
                    and len(q) == 3
                    and type(q[0]) is type(q[1]) is type(q[2]) is int
                    else as_triple(q)
                    for q in queries
                ]
                answers = [None] * len(queries)
                miss_positions = []
                keys = []
                for i, (s, t, mask) in enumerate(queries):
                    key = (fingerprint, s, t, mask)
                    keys.append(key)
                    cached = self._cache_get(key)
                    if cached is None:
                        miss_positions.append(i)
                    else:
                        answers[i] = cached
                misses = len(miss_positions)
            n = len(keys)
            self._count("queries", n)
            self._count("batches")
            run_span.count("queries", n)
            if n == 0:
                return []
            self._count("cache_hits", n - misses)
            self._count("cache_misses", misses)
            run_span.count("cache_hits", n - misses)
            run_span.count("cache_misses", misses)
            if not misses:
                return answers  # type: ignore[return-value]
            if misses == n:
                if arr is None:
                    arr = to_triple_array(queries, num_labels, num_vertices)
                values = self._execute(arr).tolist()
                self._cache_put_many(keys, values)
                return values
            if miss_positions is None:
                miss_positions = [i for i, value in enumerate(answers) if value is None]
            if arr is None:
                arr = to_triple_array(
                    [queries[i] for i in miss_positions], num_labels, num_vertices
                )
            else:
                arr = arr[miss_positions]
            values = self._execute(arr).tolist()
            self._cache_put_many([keys[i] for i in miss_positions], values)
            for i, value in zip(miss_positions, values):
                answers[i] = value
            return answers  # type: ignore[return-value]

    def _execute(self, arr: np.ndarray) -> np.ndarray:
        """Plan + execute an ``(n, 3)`` miss array; answers by position."""
        self._count("executed", len(arr))
        plan = plan_batch(arr)
        self._count("groups", len(plan.groups))
        out = np.empty(len(arr), dtype=np.float64)
        record_latency = metrics_enabled()
        latency = (
            _metrics_registry().histogram(f"engine.query_seconds.{self.oracle.name}")
            if record_latency
            else None
        )
        for group in plan.groups:
            mask_plan = self._plan_for(group.label_mask)
            if latency is not None:
                started = perf_counter()
                out[group.positions] = self.executor.execute_group(mask_plan, group)
                # One observation per mask group (per-query mean weighted by
                # group size) keeps the hot loop allocation-free.
                size = len(group.positions)
                latency.observe((perf_counter() - started) / size, count=size)
            else:
                out[group.positions] = self.executor.execute_group(mask_plan, group)
        return out

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
    ``[0, num_vertices)``, raises ``ValueError``.  The queries count into
    the registry's ``engine.queries``, as a session's do.
    """
    executor = executor_for(oracle)
    graph = oracle.graph
    plan = plan_batch(
        to_triple_array(queries, graph.num_labels, graph.num_vertices)
    )
    if plan.num_queries:
        _metrics_registry().counter("engine.queries").inc(plan.num_queries)
    out = np.empty(plan.num_queries, dtype=np.float64)
    for group in plan.groups:
        mask_plan = executor.prepare_mask(group.label_mask)
        out[group.positions] = executor.execute_group(mask_plan, group)
    return out.tolist()
