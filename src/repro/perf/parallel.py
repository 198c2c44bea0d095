"""The parallel build executor: fan per-landmark work out over threads.

Landmark index construction is embarrassingly parallel — one independent
sweep per landmark — and the sweeps run in kernels that release the GIL:
the compiled backend is loaded through ``ctypes.CDLL``, which drops the
GIL for the length of each call, and the numpy backend spends most of its
time in numpy's array loops.  So the engine here is one thread pool:
split the item list into contiguous chunks, run ``task(graphs, chunk,
extra)`` for each chunk on its own thread, and concatenate the per-chunk
result lists back in item order.  Because chunks are contiguous and reassembly is
order-preserving, the output is **bit-for-bit identical** to a serial run
for any deterministic task, regardless of worker count or scheduling.

``parallel=`` is an ``int | None`` everywhere: ``None`` or ``1`` runs one
``task`` call over the full item list in the calling thread (which also
lets chunk-aware tasks, such as ChromLand's batched BFS sweeps, see every
item at once); ``0`` means one worker per core.

Tracing
-------
When :mod:`repro.obs.trace` tracing is on, ``run_tasks`` opens a
``parallel.run_tasks`` span, and each worker thread opens a
``parallel.worker_chunk`` span under it, so a parallel build renders as
one tree.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..graph.labeled_graph import EdgeLabeledGraph
from ..obs.trace import span, spans_under

__all__ = ["run_tasks", "worker_count"]

#: A chunk task: ``task(graphs, items, extra) -> list[result]`` with one
#: result per item, in item order.
ChunkTask = Callable[[tuple[EdgeLabeledGraph, ...], Sequence[Any], Any], list]


def worker_count(parallel: int | None) -> int:
    """Threads a ``parallel=`` argument asks for: ``None``/``1`` -> 1, ``0`` -> cores."""
    if parallel is None:
        return 1
    if isinstance(parallel, bool) or not isinstance(parallel, int):
        raise TypeError(f"parallel must be an int or None, got {parallel!r}")
    if parallel < 0:
        raise ValueError(f"parallel must be >= 0, got {parallel}")
    return parallel or (os.cpu_count() or 1)


def run_tasks(
    task: ChunkTask,
    items: Sequence[Any],
    graphs: tuple[EdgeLabeledGraph, ...] = (),
    extra: Any = None,
    parallel: int | None = None,
) -> list:
    """Run ``task`` over ``items`` on ``parallel`` threads.

    Returns one result per item, **in item order** — the caller's
    reassembly is therefore deterministic and independent of worker count.
    An exception raised by ``task`` on a worker thread propagates as is.
    """
    if len(items) == 0:
        return []
    workers = min(worker_count(parallel), len(items))
    with span("parallel.run_tasks", workers=workers) as run_span:
        run_span.count("items", len(items))
        if workers == 1:
            return list(task(graphs, items, extra))
        size = -(-len(items) // workers)
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        run_span.count("chunks", len(chunks))

        def run_chunk(chunk: Sequence[Any]) -> list:
            with spans_under(run_span), span("parallel.worker_chunk") as chunk_span:
                chunk_span.count("items", len(chunk))
                return list(task(graphs, chunk, extra))

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            chunk_results = list(pool.map(run_chunk, chunks))
        results = [result for chunk in chunk_results for result in chunk]
        if len(results) != len(items):
            raise RuntimeError(
                f"task returned {len(results)} results for {len(items)} items"
            )
        return results
