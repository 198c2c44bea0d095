"""The parallel build executor: fan per-landmark work out over workers.

Landmark index construction is embarrassingly parallel — one independent
sweep per landmark — so the engine here is deliberately simple: split the
item list into contiguous chunks, run ``task(graphs, chunk, extra)`` for
each chunk on a backend, and concatenate the per-chunk result lists back in
submission order.  Because chunks are contiguous and reassembly is
order-preserving, the output is **bit-for-bit identical** to a serial run
for any deterministic task, regardless of worker count or scheduling.

Backends
--------
``"process"``
    ``ProcessPoolExecutor``.  The graphs are exported once through
    :mod:`repro.perf.shm` and every worker maps them by file region in
    its initializer, so the graph is never pickled per task and the page
    cache holds one physical copy.  Graphs opened from a store file
    (:mod:`repro.store`) are mapped from that file; in-memory graphs are
    written once to a temporary graph file, which is removed in a
    ``finally`` block — also when a worker raises.
``"thread"``
    ``ThreadPoolExecutor`` over the in-process graphs.  Useful when the
    task releases the GIL or the graphs are too large to duplicate.
``"serial"``
    One ``task`` call over the full item list in the calling thread.  This
    is the default; it also lets chunk-aware tasks (e.g. the batched BFS
    sweeps of ChromLand) see every item at once.

Tracing
-------
When :mod:`repro.obs.trace` tracing is on, ``run_tasks`` opens a
``parallel.run_tasks`` span.  Serial-backend task spans nest under it
naturally.  Process workers receive the tracing flag through the pool
initializer, trace each chunk locally, and ship the finished span dicts
home inside the chunk payload, where they are grafted under the parent
span — so a process-parallel build renders as one tree.  Thread-backend
worker spans surface as separate trace roots (each worker thread has its
own span stack).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from ..graph.labeled_graph import EdgeLabeledGraph
from ..obs.trace import (
    attach_spans,
    export_trace,
    reset_trace,
    set_tracing,
    span,
    tracing_enabled,
)
from . import shm as _shm

__all__ = [
    "ParallelConfig",
    "SERIAL",
    "resolve_parallel",
    "run_tasks",
]

_BACKENDS = ("process", "thread", "serial")

#: A chunk task: ``task(graphs, items, extra) -> list[result]`` with one
#: result per item, in item order.  Must be a module-level callable (the
#: process backend ships it to workers by reference).
ChunkTask = Callable[[tuple[EdgeLabeledGraph, ...], Sequence[Any], Any], list]


@dataclass(frozen=True)
class ParallelConfig:
    """How to fan an index build out over workers.

    Parameters
    ----------
    num_workers:
        Worker count; ``0`` means ``os.cpu_count()``.  ``1`` runs serially
        regardless of backend.
    chunk_size:
        Items per submitted chunk; ``None`` picks ``ceil(len(items) /
        num_workers)`` so every worker gets one contiguous slice.  Smaller
        chunks improve load balancing at the cost of more IPC.
    backend:
        ``"process"`` (default), ``"thread"`` or ``"serial"``.
    """

    num_workers: int = 0
    chunk_size: int | None = None
    backend: str = "process"

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    @property
    def effective_workers(self) -> int:
        if self.backend == "serial":
            return 1
        if self.num_workers == 0:
            return os.cpu_count() or 1
        return self.num_workers


#: The do-nothing configuration every ``build()`` defaults to.
SERIAL = ParallelConfig(num_workers=1, backend="serial")


def resolve_parallel(parallel: "ParallelConfig | int | None") -> ParallelConfig:
    """Normalize a ``parallel=`` argument: None -> serial, int -> config."""
    if parallel is None:
        return SERIAL
    if isinstance(parallel, ParallelConfig):
        return parallel
    if isinstance(parallel, int) and not isinstance(parallel, bool):
        if parallel <= 1:
            return SERIAL
        return ParallelConfig(num_workers=parallel)
    raise TypeError(f"parallel must be a ParallelConfig or int, got {parallel!r}")


def _chunks(items: Sequence[Any], config: ParallelConfig) -> list[Sequence[Any]]:
    size = config.chunk_size
    if size is None:
        size = max(1, -(-len(items) // config.effective_workers))
    return [items[i : i + size] for i in range(0, len(items), size)]


# ----------------------------------------------------------------------
# Process-backend worker plumbing.  Everything the workers need is shipped
# once through the pool initializer; tasks then only carry their chunk.
# ----------------------------------------------------------------------
_worker_state: dict[str, Any] = {}


def _worker_init(descriptors, task, extra, tracing: bool = False) -> None:
    _worker_state["graphs"] = tuple([_shm.attach_graph(d) for d in descriptors])
    _worker_state["task"] = task
    _worker_state["extra"] = extra
    set_tracing(tracing)


#: Marker key identifying a traced chunk payload (vs. a plain result list).
_TRACE_KEY = "__repro_trace__"


def _worker_run(chunk) -> Any:
    task = _worker_state["task"]
    graphs = _worker_state["graphs"]
    extra = _worker_state["extra"]
    if not tracing_enabled():
        return task(graphs, chunk, extra)
    # Trace the chunk locally and ship the finished spans home with the
    # results; workers are reused, so drop the previous chunk's spans first.
    reset_trace()
    with span("parallel.worker_chunk", pid=os.getpid()) as chunk_span:
        chunk_span.count("items", len(chunk))
        results = task(graphs, chunk, extra)
    return {_TRACE_KEY: export_trace(), "results": results}


def run_tasks(
    task: ChunkTask,
    items: Sequence[Any],
    graphs: tuple[EdgeLabeledGraph, ...] = (),
    extra: Any = None,
    config: "ParallelConfig | int | None" = None,
) -> list:
    """Run ``task`` over ``items`` on the configured backend.

    Returns one result per item, **in item order** — the caller's
    reassembly is therefore deterministic and independent of worker count.
    """
    config = resolve_parallel(config)
    if len(items) == 0:
        return []
    if config.backend == "serial" or config.effective_workers <= 1 or len(items) == 1:
        with span("parallel.run_tasks", backend="serial") as serial_span:
            serial_span.count("items", len(items))
            return list(task(graphs, items, extra))

    chunks = _chunks(items, config)
    workers = min(config.effective_workers, len(chunks))

    with span(
        "parallel.run_tasks", backend=config.backend, workers=workers
    ) as run_span:
        run_span.count("items", len(items))
        run_span.count("chunks", len(chunks))
        if config.backend == "thread":
            with ThreadPoolExecutor(max_workers=workers) as pool:
                chunk_results = list(
                    pool.map(lambda c: task(graphs, c, extra), chunks)
                )
        else:
            pack = _shm.share_graphs(graphs)
            try:
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_worker_init,
                    initargs=(pack.descriptors, task, extra, tracing_enabled()),
                ) as pool:
                    chunk_results = list(pool.map(_worker_run, chunks))
            finally:
                pack.release()

        results: list = []
        for chunk_result in chunk_results:
            if isinstance(chunk_result, dict) and _TRACE_KEY in chunk_result:
                attach_spans(chunk_result[_TRACE_KEY])
                chunk_result = chunk_result["results"]
            results.extend(chunk_result)
        if len(results) != len(items):
            raise RuntimeError(
                f"task returned {len(results)} results for {len(items)} items"
            )
        return results
