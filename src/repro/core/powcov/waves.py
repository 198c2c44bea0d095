"""Wave-batched TraversePowerset — Algorithm 2 over cardinality waves.

:func:`repro.core.powcov.spminimal.traverse_powerset` issues one
constrained BFS per candidate label set, serially; the only parallelism in
a PowCov build is across landmarks.  The builder here restructures the
per-landmark sweep itself around the batched multi-source kernel:

* **Wave schedule** — surviving candidates (Observation 1) are processed
  in ascending-cardinality *waves*: wave ``k`` holds every candidate with
  ``|C| = k``.  All masks of a wave are answered by a single
  :func:`repro.perf.batched.batched_constrained_bfs` call (same source
  landmark, per-row masks), amortizing the per-level Python and CSR-gather
  overhead over the whole wave instead of paying it once per mask.
* **Vectorized Theorem 2** — every one-removed subset of a wave-``k`` mask
  has cardinality ``k - 1``, i.e. lives in the *previous* wave.  The
  one-label-removed test therefore runs as one stacked sweep: gather the
  ``k`` subset rows per mask from the previous wave's matrix (a padded
  all-``BIG`` row stands in for Observation-1-pruned subsets), take the
  row-wise minimum, and compare against the wave's own distance matrix.
* **Cardinality ring cache** — only the previous wave's rows are retained
  for those lookups, so build memory is ``O(max_k C(|L|, k) * n)`` instead
  of the all-masks ``O(2^|L| * n)`` dictionary the scalar builder keeps.
* **Wave-wide Observation 4** — the auto-minimality test is re-derived
  directly from the CSR arrays: a candidate vertex ``u`` at BFS level
  ``t`` is auto-minimal iff every C-allowed in-arc ``(v, u)`` with
  ``d_C(x, v) = t - 1`` leaves an SP-minimal predecessor ``v``.  In-arcs
  come from the graph itself (its reverse for directed graphs), so no
  per-mask BFS trees are ever materialized.

The produced :class:`~repro.core.powcov.spminimal.LandmarkSPMinimal`
entries are bit-for-bit identical to both the scalar ``traverse_powerset``
and ``brute_force_sp_minimal`` (property-tested in
``tests/test_powerset_waves.py``); only wall-clock time and memory differ,
which is what ``benchmarks/bench_powerset_build.py`` measures.
"""

from __future__ import annotations

import numpy as np

from ...graph.labeled_graph import EdgeLabeledGraph
from ...graph.labelsets import full_mask, iter_one_removed, popcount
from ...graph.traversal import (
    UNREACHABLE,
    label_filter,
    monochromatic_sp_labels,
)
from ...kernels import KernelBackend, resolve_kernel
from ...obs.metrics import metrics_enabled
from ...obs.metrics import registry as _metrics_registry
from ...obs.trace import span, tracing_enabled
from ...perf.batched import batched_constrained_bfs
from .spminimal import BIG, EntryParts, LandmarkSPMinimal, generate_candidates

__all__ = ["wave_schedule", "traverse_powerset_waves"]


def wave_schedule(candidates: list[int]) -> list[list[int]]:
    """Group candidate masks into ascending-cardinality waves.

    Wave ``i`` of the result holds the candidates with the ``i``-th
    smallest cardinality, sorted ascending by mask value.  Every
    one-removed subset of a wave's mask lies in the preceding wave (or was
    Observation-1-pruned), which is the invariant the ring cache relies
    on.
    """
    by_size: dict[int, list[int]] = {}
    for mask in candidates:
        by_size.setdefault(popcount(mask), []).append(mask)
    return [sorted(by_size[size]) for size in sorted(by_size)]


def _obs4_row(
    in_graph: EdgeLabeledGraph,
    allowed: np.ndarray,
    dist_row: np.ndarray,
    candidate_row: np.ndarray,
    passes_theorem2: np.ndarray,
    flagged: np.ndarray,
    result: LandmarkSPMinimal,
) -> np.ndarray:
    """Observation 4 level sweep for one mask, straight from CSR arrays.

    ``in_graph`` supplies in-arcs (the graph itself when undirected, its
    reverse otherwise); ``passes_theorem2`` is the precomputed vectorized
    Theorem 2 verdict used for the vertices that are not auto-minimal.
    ``flagged`` is a caller-owned scratch buffer, reset before returning.
    Returns the per-vertex SP-minimality verdict for this mask.
    """
    n = len(dist_row)
    is_min = np.zeros(n, dtype=bool)
    cand_idx = np.nonzero(candidate_row)[0]
    if cand_idx.size == 0:
        return is_min
    order = np.argsort(dist_row[cand_idx], kind="stable")
    cand_idx = cand_idx[order]
    cand_dist = dist_row[cand_idx]
    indptr, neighbors, edge_labels = (
        in_graph.indptr,
        in_graph.neighbors,
        in_graph.edge_labels,
    )
    for t in np.unique(cand_dist):
        t = int(t)
        lo = int(np.searchsorted(cand_dist, t, side="left"))
        hi = int(np.searchsorted(cand_dist, t, side="right"))
        level_vertices = cand_idx[lo:hi]
        # Gather every in-arc of the level's vertices in one CSR sweep and
        # keep the shortest-path DAG arcs: allowed label, predecessor one
        # level closer to the landmark.
        starts = indptr[level_vertices]
        counts = indptr[level_vertices + 1] - starts
        total = int(counts.sum())
        if total:
            ends = np.cumsum(counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                ends - counts, counts
            )
            arc_idx = np.repeat(starts, counts) + offsets
            owners = np.repeat(level_vertices, counts)
            preds = neighbors[arc_idx].astype(np.int64)
            on_dag = allowed[edge_labels[arc_idx]] & (dist_row[preds] == t - 1)
            bad = owners[on_dag & ~is_min[preds]]
        else:  # pragma: no cover - candidates are reachable, so have in-arcs
            bad = np.empty(0, dtype=np.int64)
        flagged[bad] = True
        auto = level_vertices[~flagged[level_vertices]]
        needs_test = level_vertices[flagged[level_vertices]]
        flagged[bad] = False  # reset the shared buffer
        is_min[auto] = True
        result.num_auto_minimal += len(auto)
        result.num_full_tests += len(needs_test)
        is_min[needs_test[passes_theorem2[needs_test]]] = True
    return is_min


def traverse_powerset_waves(
    graph: EdgeLabeledGraph,
    landmark: int,
    use_obs1: bool = True,
    use_obs2: bool = True,
    use_obs3: bool = True,
    use_obs4: bool = True,
    batch_rows: int = 1024,
    kernel: "str | KernelBackend | None" = None,
) -> LandmarkSPMinimal:
    """Algorithm 2 restructured into batched cardinality waves.

    Produces exactly the same entries as ``traverse_powerset`` and
    ``brute_force_sp_minimal``; the four Observation flags drive the
    pruning-ablation benchmark, mirroring the scalar builder.
    ``batch_rows`` caps the rows per batched-BFS call so very wide waves
    (large ``C(|L|, k)``) are chunked without changing the result.
    ``kernel`` selects the :mod:`repro.kernels` backend that runs the
    MS-BFS sweeps and the Theorem 2 one-removed pass (``None`` = process
    default); every backend is bit-identical, so this only moves
    wall-clock time.
    """
    if batch_rows < 1:
        raise ValueError("batch_rows must be >= 1")
    backend = resolve_kernel(kernel)
    result = LandmarkSPMinimal(landmark=landmark)
    universe = full_mask(graph.num_labels)
    if use_obs1:
        candidates = generate_candidates(graph, landmark)
    else:
        candidates = list(range(1, universe + 1))
    if not candidates:
        return result

    mono: np.ndarray | None = None
    if use_obs3:
        mono = monochromatic_sp_labels(graph, landmark)
    in_graph = graph.reversed() if (use_obs4 and graph.directed) else graph

    n = graph.num_vertices
    parts = EntryParts()
    flagged = np.zeros(n, dtype=bool)  # Obs-4 scratch, reused across masks
    # Ring cache: only the previous wave's distance rows stay alive, with a
    # trailing all-BIG pad row standing in for Obs-1-pruned subsets.
    pad_row = np.full((1, n), BIG, dtype=np.int32)
    prev_rows: np.ndarray = pad_row
    prev_index: dict[int, int] = {}

    # Per-wave frontier/pruning accounting is paid only when tracing or the
    # optional metrics are on — the default build skips the extra reduces.
    # Metric increments accumulate in locals and flush to the registry once
    # after the loop, keeping the per-wave enabled cost to the span itself.
    observing = metrics_enabled() or tracing_enabled()
    metering = metrics_enabled()
    total_waves = total_rows = total_visited = total_pruned = total_emitted = 0
    width_counts: dict[int, int] = {}

    for wave in wave_schedule(candidates):
        size = popcount(wave[0])
        with span("powcov.wave", size=size, kernel=backend.name) as wave_span:
            dist = np.empty((len(wave), n), dtype=np.int32)
            for lo in range(0, len(wave), batch_rows):
                chunk = wave[lo : lo + batch_rows]
                raw = batched_constrained_bfs(
                    graph, [landmark] * len(chunk), masks=chunk, kernel=backend
                )
                dist[lo : lo + len(chunk)] = np.where(raw == UNREACHABLE, BIG, raw)
            result.num_sssp += len(wave)
            wave_masks = np.asarray(wave, dtype=np.int64)

            candidate = dist < BIG
            candidate[:, landmark] = False
            visited = int(np.count_nonzero(candidate)) if observing else 0
            if use_obs2:
                candidate &= dist >= size
            if use_obs3 and size >= 2 and mono is not None:
                # A monochromatic SP label inside C makes C ⊋ {l_u} non-minimal.
                candidate &= (mono[None, :] & wave_masks[:, None]) == 0
            pruned = visited - int(np.count_nonzero(candidate)) if observing else 0

            # Theorem 2, one stacked sweep: gather each mask's one-removed
            # subset rows from the previous wave and minimum-reduce them.
            if size >= 2:
                pad = prev_rows.shape[0] - 1
                sub_rows = np.full((len(wave), size), pad, dtype=np.int64)
                for i, mask in enumerate(wave):
                    for j, sub in enumerate(iter_one_removed(mask)):
                        row = prev_index.get(sub)
                        if row is not None:
                            sub_rows[i, j] = row
                passes_theorem2 = backend.one_removed_pass(
                    dist, prev_rows, sub_rows
                )
            else:
                # singletons have no nonzero subsets: every candidate passes
                passes_theorem2 = candidate

            if not use_obs4:
                result.num_full_tests += int(candidate.sum())
                rows, vertices = np.nonzero(candidate & passes_theorem2)
                parts.add(vertices, dist[rows, vertices], wave_masks[rows])
                emitted = len(vertices)
            else:
                emitted = 0
                for i, mask in enumerate(wave):
                    is_min = _obs4_row(
                        in_graph,
                        label_filter(graph, mask),
                        dist[i],
                        candidate[i],
                        passes_theorem2[i],
                        flagged,
                        result,
                    )
                    vertices = np.flatnonzero(is_min)
                    parts.add(vertices, dist[i, vertices], mask)
                    emitted += len(vertices)

            wave_span.count("masks", len(wave))
            wave_span.count("emitted", emitted)
            if observing:
                wave_span.count("visited", visited)
                wave_span.count("pruned", pruned)
            if metering:
                total_waves += 1
                total_rows += len(wave)
                total_visited += visited
                total_pruned += pruned
                total_emitted += emitted
                width_counts[len(wave)] = width_counts.get(len(wave), 0) + 1

            # Rotate the ring cache: this wave's rows (plus the BIG pad) are
            # all the next wave's one-removed lookups can ever touch.
            prev_rows = np.concatenate([dist, pad_row], axis=0)
            prev_index = {mask: i for i, mask in enumerate(wave)}

    if metering and total_waves:
        reg = _metrics_registry()
        reg.counter("powcov.waves").inc(total_waves)
        reg.counter("powcov.bfs_rows").inc(total_rows)
        reg.counter("powcov.visited_vertices").inc(total_visited)
        reg.counter("powcov.pruned_candidates").inc(total_pruned)
        reg.counter("powcov.entries_emitted").inc(total_emitted)
        hist = reg.histogram("powcov.wave_width", lo=1.0, hi=1e6, per_decade=5)
        for width, count in sorted(width_counts.items()):
            hist.observe(float(width), count=count)

    result.set_entries(parts)
    return result
