"""Micro-batching: coalesce concurrent requests into one engine batch.

Concurrent HTTP requests arrive as many tiny query lists; the engine is
fastest when it executes one large batch (one plan, one mask-group sweep
per distinct mask).  A :class:`MicroBatcher` sits between the two, and
coalescing comes from the engine being busy, never from a clock:

* a request that reaches an **idle** batcher is flushed at once, so a
  lone lookup pays no wait;
* requests that arrive while a batch runs wait in the pending buffer,
  and when the last in-flight batch completes they all go out as **one**
  ``session.run``-shaped call;
* the pending buffer is flushed early as soon as it holds ``max_batch``
  queries.

A request's queries reach ``execute`` as submitted: a lone request's
``(n, 3)`` int64 array or triple list is passed through untouched, and
only a coalesced batch is concatenated (into one array when any member
is an array).

Ordering and isolation guarantees, property-tested in
``tests/test_serve.py``:

* **per-request ordering** — each submitter receives exactly its own
  answers, in its own submission order, regardless of how requests were
  interleaved into flushes;
* **error isolation** — if a flushed batch fails as a whole, every
  request in it is retried individually, so a poison query fails only
  the request that carried it and every innocent neighbor still gets its
  answers.
"""

from __future__ import annotations

import asyncio
import inspect
from collections.abc import Awaitable, Callable, Sequence
from typing import Union

import numpy as np

from ..obs.metrics import registry as _metrics_registry

__all__ = ["MicroBatcher"]

Triple = tuple[int, int, int]
#: One request's queries: ``(s, t, mask)`` triples, or an ``(n, 3)`` int64
#: array of them.
Queries = Union[Sequence[Triple], np.ndarray]
ExecuteFn = Callable[
    [Queries], Union[Sequence[float], Awaitable[Sequence[float]]]
]


def _concatenate(parts: list[Queries]) -> Queries:
    """One batch from the members' queries, in member order."""
    if len(parts) == 1:
        return parts[0]
    if not any(isinstance(part, np.ndarray) for part in parts):
        return [t for part in parts for t in part]
    return np.concatenate(
        [np.asarray(part, dtype=np.int64).reshape(-1, 3) for part in parts]
    )


class _PendingRequest:
    """One submitter's queries plus the future its answers resolve."""

    __slots__ = ("triples", "future")

    def __init__(
        self, triples: Queries, future: "asyncio.Future[list[float]]"
    ) -> None:
        self.triples = triples
        self.future = future


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into single engine batches.

    Parameters
    ----------
    execute:
        Called with the queries of every coalesced request, concatenated;
        may return the answers directly or an awaitable of them (the
        serving app hands back ``run_in_executor`` futures so numpy work
        leaves the event loop).
    max_batch:
        Flush as soon as this many queries are pending, even while a
        batch runs.  ``1`` is exactly batch-size-1 serving (the benchmark
        baseline).
    """

    def __init__(self, execute: ExecuteFn, max_batch: int = 256) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._execute = execute
        self.max_batch = max_batch
        self._pending: list[_PendingRequest] = []
        self._pending_queries = 0
        # Batches flushed but not yet completed (strong refs: the loop
        # only keeps weak ones); while any runs, new requests wait.
        self._running: set[asyncio.Task[None]] = set()

    async def submit(self, triples: Queries) -> list[float]:
        """Queue one request's queries; await its answers.

        Returns answers in the request's own submission order.  An empty
        request resolves immediately with an empty list.
        """
        if len(triples) == 0:
            return []
        future: "asyncio.Future[list[float]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append(_PendingRequest(triples, future))
        self._pending_queries += len(triples)
        if not self._running or self._pending_queries >= self.max_batch:
            self.flush_now()
        return await future

    @property
    def pending_queries(self) -> int:
        return self._pending_queries

    def flush_now(self) -> None:
        """Flush whatever is pending as one batch task, immediately."""
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        self._pending_queries = 0
        registry = _metrics_registry()
        registry.counter("serve.batches").inc()
        registry.counter("serve.batched_requests").inc(len(batch))
        total = sum(len(p.triples) for p in batch)
        registry.histogram("serve.batch_size", lo=1.0, hi=1e5).observe(total)
        task = asyncio.get_running_loop().create_task(self._run_batch(batch))
        self._running.add(task)
        task.add_done_callback(self._batch_done)

    def _batch_done(self, task: "asyncio.Task[None]") -> None:
        # Whatever arrived while the engine was busy goes out as one batch
        # once the last running batch completes.  Done callbacks run after
        # the wake-ups of that batch's submitters, so a submitter that
        # answers and submits again at once joins this flush.
        self._running.discard(task)
        if not self._running:
            self.flush_now()

    async def _call_execute(self, triples: Queries) -> list[float]:
        result = self._execute(triples)
        if inspect.isawaitable(result):
            result = await result
        answers = list(result)
        if len(answers) != len(triples):
            raise RuntimeError(
                f"execute returned {len(answers)} answers for "
                f"{len(triples)} queries"
            )
        return answers

    async def _run_batch(self, batch: list[_PendingRequest]) -> None:
        try:
            answers = await self._call_execute(
                _concatenate([pending.triples for pending in batch])
            )
        except Exception:
            # The whole batch failed: isolate the poison request(s) by
            # retrying each request on its own, so every healthy request
            # still resolves and only the offender sees the error.
            _metrics_registry().counter("serve.batch_retries").inc()
            for pending in batch:
                await self._resolve_individually(pending)
            return
        position = 0
        for pending in batch:
            end = position + len(pending.triples)
            if not pending.future.cancelled():
                pending.future.set_result(answers[position:end])
            position = end

    async def _resolve_individually(self, pending: _PendingRequest) -> None:
        try:
            answers = await self._call_execute(pending.triples)
        except Exception as exc:
            _metrics_registry().counter("serve.request_errors").inc()
            if not pending.future.cancelled():
                pending.future.set_exception(exc)
            return
        if not pending.future.cancelled():
            pending.future.set_result(list(answers))
