"""Batched multi-source constrained BFS.

Many label-constrained sweeps run over the same graph: ChromLand's ``k``
monochromatic sweeps and its bi-chromatic landmark rows, the wave-batched
PowCov builder's per-cardinality candidate waves, a workload's
ground-truth distances.  :func:`batched_constrained_bfs` takes them as
one ``(num_sources, num_vertices)`` distance matrix and hands the whole
batch to one of two :mod:`repro.kernels` sweeps:

* ``msbfs_bitset`` — per-row-mask batches of at least
  :data:`_BITSET_MIN_ROWS` rows.  Rows are packed 64 to a machine word
  and a level expands all of them with one full-arc sweep.
* ``msbfs_sparse`` — everything else (shared-mask batches and small
  per-row batches): one single-source BFS per row, whose cost scales
  with the subgraph the row's mask reaches.

Each row of the result is exactly the distance array
:func:`repro.graph.traversal.constrained_bfs` would produce, which is
what lets ``ChromLandIndex.build()`` and the wave-batched PowCov builder
(:mod:`repro.core.powcov.waves`) use this kernel with bit-for-bit
identical output.  ``max_level`` stops every row once the remaining
undiscovered vertices would lie beyond the bound; callers that only need
distances up to a radius skip the long tail of the sweep.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import full_mask
from ..graph.traversal import UNREACHABLE, label_filter
from ..kernels import KernelBackend, resolve_kernel

__all__ = ["batched_constrained_bfs", "exact_workload_distances"]

#: Per-row-mask batches at least this tall run the bit-parallel kernel;
#: smaller ones (and every shared-mask batch) run the sparse per-row
#: sweep, whose cost scales with the touched subgraph rather than with
#: whole-arc sweeps.
_BITSET_MIN_ROWS = 4


def _allowed_table(
    graph: EdgeLabeledGraph,
    num_sources: int,
    mask: int | None,
    masks: "Sequence[int] | np.ndarray | None",
) -> np.ndarray:
    """The per-row ``(S, L)`` bool label table; a shared mask's single
    row is broadcast to every row without a copy."""
    if masks is not None:
        if len(masks) != num_sources:
            raise ValueError("masks must be parallel to sources")
        if graph.num_labels <= 63:
            mask_arr = np.asarray(list(masks), dtype=np.int64)
            shifts = np.arange(graph.num_labels, dtype=np.int64)
            return ((mask_arr[:, None] >> shifts) & 1).astype(bool)
        # rare wide-universe graphs: per-row scalar fallback
        return np.stack([label_filter(graph, int(m)) for m in masks])
    if mask is None:
        mask = full_mask(graph.num_labels)
    table = label_filter(graph, mask)
    return np.broadcast_to(table, (num_sources, table.shape[0]))


def batched_constrained_bfs(
    graph: EdgeLabeledGraph,
    sources: "Sequence[int] | np.ndarray",
    mask: int | None = None,
    masks: "Sequence[int] | np.ndarray | None" = None,
    max_level: int | None = None,
    kernel: "str | KernelBackend | None" = None,
) -> np.ndarray:
    """C-constrained BFS from many sources in one kernel call.

    Parameters
    ----------
    sources:
        Source vertex per row; duplicates are allowed (rows are
        independent sweeps).
    mask:
        One constraint mask shared by every row (``None`` = all labels).
    masks:
        Per-row constraint masks, parallel to ``sources``; overrides
        ``mask``.  This is what lets ChromLand run its per-landmark
        monochromatic sweeps — and the wave-batched PowCov builder its
        per-cardinality candidate waves — as a single batch.
    max_level:
        Optional early-exit distance bound: expansion stops after the
        ``max_level`` frontier, leaving strictly farther vertices marked
        unreachable.  ``None`` (default) runs every row to exhaustion.
    kernel:
        Which :mod:`repro.kernels` backend runs the sweep: a backend
        name (``"numpy"``/``"cext"``/``"auto"``), an already
        resolved backend instance, or ``None`` for ``"auto"``.  All
        backends are bit-identical; only wall-clock time changes.

    Returns
    -------
    ``(len(sources), num_vertices)`` ``int32`` matrix; ``row[i]`` equals
    ``constrained_bfs(graph, sources[i], masks[i])`` exactly (entries
    beyond ``max_level``, when given, are ``-1``).
    """
    source_arr = np.asarray(list(sources), dtype=np.int64)
    num_sources = len(source_arr)
    n = graph.num_vertices
    dist = np.full((num_sources, n), UNREACHABLE, dtype=np.int32)
    if num_sources == 0:
        return dist
    if source_arr.size and (source_arr.min() < 0 or source_arr.max() >= n):
        raise ValueError("source vertex out of range")
    if max_level is not None and max_level < 0:
        raise ValueError("max_level must be non-negative")
    allowed = _allowed_table(graph, num_sources, mask, masks)
    backend = resolve_kernel(kernel)
    level_cap = -1 if max_level is None else int(max_level)

    dist[np.arange(num_sources), source_arr] = 0
    if masks is not None and num_sources >= _BITSET_MIN_ROWS:
        in_graph = graph.reversed()
        backend.msbfs_bitset(
            in_graph.indptr,
            in_graph.neighbors,
            in_graph.edge_labels,
            n,
            source_arr,
            allowed,
            dist,
            level_cap,
        )
        return dist
    backend.msbfs_sparse(
        graph.indptr,
        graph.neighbors,
        graph.edge_labels,
        n,
        source_arr,
        allowed,
        dist,
        level_cap,
    )
    return dist


def exact_workload_distances(
    graph: EdgeLabeledGraph,
    queries: "Sequence[tuple[int, int, int]]",
    batch_size: int = 64,
) -> np.ndarray:
    """Exact ``d_C(s, t)`` for many ``(s, t, mask)`` triples, batched.

    Groups the queries by constraint mask, deduplicates sources within a
    group, and runs :func:`batched_constrained_bfs` over ``batch_size``
    sources at a time — the eval runner's workload ground-truth pass this
    way runs one full sweep per distinct source instead of one
    bidirectional BFS per query.  Returns a ``float64`` array parallel to
    ``queries`` with ``inf`` for unreachable pairs.
    """
    out = np.full(len(queries), np.inf, dtype=np.float64)
    by_mask: dict[int, list[int]] = {}
    for position, (_s, _t, query_mask) in enumerate(queries):
        by_mask.setdefault(int(query_mask), []).append(position)
    for query_mask, positions in by_mask.items():
        unique_sources = sorted({int(queries[p][0]) for p in positions})
        row_of = {s: i for i, s in enumerate(unique_sources)}
        for lo in range(0, len(unique_sources), max(1, batch_size)):
            chunk = unique_sources[lo : lo + max(1, batch_size)]
            dist = batched_constrained_bfs(graph, chunk, mask=query_mask)
            for p in positions:
                s, t, _m = queries[p]
                row = row_of[int(s)] - lo
                if 0 <= row < len(chunk):
                    value = int(dist[row, int(t)])
                    if value != UNREACHABLE:
                        out[p] = float(value)
    return out
