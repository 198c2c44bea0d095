"""Batched multi-source constrained BFS.

:func:`repro.graph.traversal.constrained_bfs` pays a fixed Python/numpy
overhead per BFS level (slicing ``indptr``, building the arc index,
gathering labels and targets).  When many sweeps run over the same graph —
ChromLand's ``k`` monochromatic sweeps, its bi-chromatic landmark rows, or
a workload's ground-truth distances — that overhead can be amortized by
expanding **one combined frontier** over a ``(num_sources, num_vertices)``
distance matrix: every level gathers the CSR slices of all active
``(source, vertex)`` pairs at once.

Each row of the result is exactly the distance array the single-source
BFS would produce (both compute exact constrained distances), which is
what lets ``ChromLandIndex.build()`` and the wave-batched PowCov builder
(:mod:`repro.core.powcov.waves`) switch to this kernel with bit-for-bit
identical output.

Two refinements keep heterogeneous batches cheap:

* **Active-row compaction** — per-row constraint masks make frontiers die
  at very different levels (a singleton-mask row may exhaust its component
  in two hops while the full-mask row sweeps the whole graph).  Rows whose
  frontier produced no fresh vertices are dropped from the working set:
  the per-source ``allowed`` table and the dedup key space shrink to the
  live rows, so later level gathers never touch dead rows again.
* **Early-exit distance bound** — ``max_level`` stops the expansion once
  every remaining undiscovered vertex would lie beyond the bound; callers
  that only need distances up to a radius (e.g. Observation 2 style
  cutoffs) skip the long tail of the sweep.
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
#: smaller ones stay on the sparse frontier expansion, whose cost scales
#: with the touched subgraph rather than with whole-arc sweeps.
_BITSET_MIN_ROWS = 4


def _allowed_table(
    graph: EdgeLabeledGraph,
    num_sources: int,
    mask: int | None,
    masks: "Sequence[int] | np.ndarray | None",
) -> tuple[np.ndarray, bool]:
    """``(table, per_source)``: per-source (S, L) or shared (L,) bool table."""
    if masks is not None:
        if len(masks) != num_sources:
            raise ValueError("masks must be parallel to sources")
        if graph.num_labels <= 63:
            mask_arr = np.asarray(list(masks), dtype=np.int64)
            shifts = np.arange(graph.num_labels, dtype=np.int64)
            table = ((mask_arr[:, None] >> shifts) & 1).astype(bool)
        else:  # rare wide-universe graphs: per-row scalar fallback
            table = np.stack([label_filter(graph, int(m)) for m in masks])
        return table, True
    if mask is None:
        mask = full_mask(graph.num_labels)
    return label_filter(graph, mask), False


def batched_constrained_bfs(
    graph: EdgeLabeledGraph,
    sources: "Sequence[int] | np.ndarray",
    mask: int | None = None,
    masks: "Sequence[int] | np.ndarray | None" = None,
    max_level: int | None = None,
    kernel: "str | KernelBackend | None" = None,
) -> np.ndarray:
    """C-constrained BFS from many sources in one frontier-expansion loop.

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

    Rows whose frontier dies are compacted out of the working set, so a
    batch mixing quickly-exhausted masks with long sweeps only pays for
    the rows that are still expanding at each level.
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
    allowed, per_source = _allowed_table(graph, num_sources, mask, masks)
    backend = resolve_kernel(kernel)
    level_cap = -1 if max_level is None else int(max_level)

    rows64 = np.arange(num_sources, dtype=np.int64)
    dist[rows64, source_arr] = 0
    if per_source and num_sources >= _BITSET_MIN_ROWS:
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
    # Sparse path: compiled backends run one sequential BFS per row and
    # return True; the numpy backend declines (False) so the vectorized
    # label-grouped-CSR expansion below keeps serving it.  The broadcast
    # for a shared mask is zero-copy (numpy never touches it).
    allowed2d = (
        allowed
        if per_source
        else np.broadcast_to(allowed, (num_sources, allowed.shape[0]))
    )
    if backend.msbfs_sparse(
        graph.indptr,
        graph.neighbors,
        graph.edge_labels,
        n,
        source_arr,
        allowed2d,
        dist,
        level_cap,
    ):
        return dist
    dist_cells = dist.reshape(-1)
    # 32-bit addressing whenever the flat (row, vertex) space fits: the
    # claim scratch, stamps, and flat indices then move half the bytes.
    wide = num_sources * n >= 2**31
    idx = np.int64 if wide else np.int32
    # ``row_ids[c]`` maps the compacted row slot ``c`` back to its global
    # row in ``dist``; frontier bookkeeping runs in compacted space, and
    # while no row has died yet (``identity``) the indirection is skipped.
    # The ``astype(idx)`` casts below are guarded narrowings: ``idx`` is
    # int32 only when ``num_sources * n < 2**31``, so every row id, vertex
    # id and flat index provably fits.  REPRO009 cannot see the guard
    # (the dtype joins to int32|int64 after the branch), hence the noqas.
    row_ids = rows64.astype(idx)  # noqa: REPRO009
    identity = True
    frontier_rows = row_ids
    frontier_vertices = source_arr.astype(idx)  # noqa: REPRO009
    # Scatter-stamp dedup scratch: ``claim[flat]`` holds the stamp of the
    # last arc that reached that (row, vertex) pair; an arc whose stamp
    # survives the read-back is the unique winner for its pair.  One
    # scatter + one gather replaces a hash/sort-based ``np.unique`` over
    # combined keys.  Stamps only disambiguate arcs *within* one level
    # (freshness comes from ``dist``), so the scratch can be wiped when
    # the 32-bit stamp space runs out.
    claim = np.full(num_sources * n, -1, dtype=idx)
    stamp_stop = 2**62 if wide else 2**31 - 1
    stamp_base = 0
    indptr, neighbors, edge_labels = graph.indptr, graph.neighbors, graph.edge_labels
    if per_source:
        # Per-row masks: expand through the label-grouped CSR so only the
        # arcs a row's mask allows are ever gathered — no per-arc label
        # test.  ``lab_pad[r, :row_nlab[r]]`` lists row ``r``'s labels.
        group_indptr, grouped_neighbors = graph.label_grouped_csr()
        num_labels = graph.num_labels
        lab_rows, lab_cols = np.nonzero(allowed)
        row_nlab = np.bincount(lab_rows, minlength=num_sources)
        lab_ends = np.cumsum(row_nlab)
        pos = np.arange(lab_rows.size, dtype=np.int64) - np.repeat(
            lab_ends - row_nlab, row_nlab
        )
        lab_pad = np.zeros((num_sources, num_labels), dtype=np.int64)
        lab_pad[lab_rows, pos] = lab_cols
        # Same label count on every row (always true for one cardinality
        # wave of the PowCov build) lets the (pair, label) expansion be a
        # broadcast instead of a ragged repeat/cumsum cascade.
        uniform = int(row_nlab.min(initial=0)) == int(row_nlab.max(initial=0))
    level = 0
    while frontier_vertices.size:
        level += 1
        if max_level is not None and level > max_level:
            break
        if per_source:
            # Expand (pair, allowed-label) groups, then their arcs.
            if uniform:
                nlab = int(row_nlab[0]) if row_nlab.size else 0
                if nlab == 0:
                    break
                key = frontier_vertices.astype(np.int64)[:, None] * num_labels
                key += lab_pad[frontier_rows, :nlab]
                key = key.ravel()
                pair_rows = np.broadcast_to(
                    frontier_rows[:, None], (frontier_rows.size, nlab)
                ).ravel()
            else:
                counts_lab = row_nlab[frontier_rows]
                total_lab = int(counts_lab.sum())
                if total_lab == 0:
                    break
                ends_lab = np.cumsum(counts_lab)
                off_lab = np.arange(total_lab, dtype=np.int64) - np.repeat(
                    ends_lab - counts_lab, counts_lab
                )
                pair_rows = np.repeat(frontier_rows, counts_lab)
                labs = lab_pad[pair_rows, off_lab]
                key = np.repeat(frontier_vertices, counts_lab).astype(np.int64)
                key *= num_labels
                key += labs
            starts = group_indptr[key]
            counts = group_indptr[key + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            ends = np.cumsum(counts)
            offsets = np.arange(total, dtype=group_indptr.dtype) - np.repeat(
                ends - counts, counts
            )
            arc_idx = np.repeat(starts, counts) + offsets
            arc_rows = np.repeat(pair_rows, counts)
            targets = grouped_neighbors[arc_idx]
        else:
            starts = indptr[frontier_vertices]
            counts = indptr[frontier_vertices + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # One combined CSR gather for every (row, vertex) frontier pair.
            ends = np.cumsum(counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                ends - counts, counts
            )
            arc_idx = np.repeat(starts, counts) + offsets
            arc_rows = np.repeat(frontier_rows, counts)
            ok = allowed[edge_labels[arc_idx]]
            arc_rows = arc_rows[ok]
            targets = neighbors[arc_idx[ok]]
        if targets.size == 0:
            break
        # One flat (row, vertex) address shared by the freshness gather,
        # the distance scatter, and the dedup claim scatter/gather.
        glob = arc_rows if identity else row_ids[arc_rows]
        flat = glob * idx(n) + targets
        fresh = dist_cells[flat] == UNREACHABLE
        arc_rows = arc_rows[fresh]
        targets = targets[fresh]
        if targets.size == 0:
            break
        flat = flat[fresh]
        # Duplicate (row, target) scatters all write the same level.
        dist_cells[flat] = level
        if stamp_base + targets.size > stamp_stop:
            claim.fill(-1)
            stamp_base = 0
        stamps = np.arange(stamp_base, stamp_base + targets.size, dtype=idx)
        stamp_base += int(targets.size)
        claim[flat] = stamps
        winner = claim[flat] == stamps
        arc_rows = arc_rows[winner]
        targets = targets[winner]
        # Active-row compaction: ``arc_rows`` is sorted (``frontier_rows``
        # is sorted and ``np.repeat``/boolean filters preserve order), so
        # its first occurrences are the rows still alive.  Dead rows are
        # dropped from the per-source table before the next level's
        # gathers.
        live = arc_rows[np.flatnonzero(np.diff(arc_rows, prepend=-1))]
        if live.size < row_ids.size:
            row_ids = row_ids[live]
            identity = False
            if per_source:
                row_nlab = row_nlab[live]
                lab_pad = lab_pad[live]
            # Guarded narrowing: searchsorted returns positions < live.size
            # <= num_sources, which fits ``idx`` by the 2**31 guard above.
            arc_rows = np.searchsorted(live, arc_rows).astype(  # noqa: REPRO009
                idx, copy=False
            )
        frontier_rows = arc_rows
        frontier_vertices = targets
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
    way amortizes the CSR gathers that a per-query bidirectional BFS would
    repeat from scratch.  Returns a ``float64`` array parallel to
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
