"""Incremental index maintenance over versioned graph deltas.

The builders in :mod:`repro.core.powcov` and :mod:`repro.core.chromland`
assume a frozen graph; this module absorbs a
:class:`~repro.graph.delta.GraphDelta` into an *already built* index
without rebuilding from scratch, with output **bit-identical** to a fresh
build on the new graph (property-tested by
:func:`assert_repair_matches_rebuild` and ``tests/test_dynamic.py``).

PowCov repair
-------------
*Insertions* use decrease-only repair.  Adding edge ``(u, v, l)`` can only
change ``d_C`` for masks ``C ∋ l``, and — because unit-weight distances
satisfy the triangle condition along every edge — the distance row of
``C`` changes iff some inserted edge with ``l ∈ C`` has
``|d_C(x, u) - d_C(x, v)| ≥ 2`` under the *old* distances.  Old distances
never need re-deriving: Theorem 1 reconstructs any row from the stored
SP-minimal entries.  Improvable rows are re-relaxed with a decrease-only
BFS seeded from the reconstructed row (distances only drop on insertion,
so the old row is a valid upper bound to start from); then only the dirty
masks — improved rows plus their one-label-added supersets, whose
Theorem 2 minimality test reads the improved rows — have their entries
recomputed and spliced back in.  Landmarks where no mask is improvable
(the common case for a single edge) are untouched, which is where the
order-of-magnitude speedup over a rebuild comes from.

*Deletions and relabels* are handled conservatively: a deleted edge
``(u, v, l)`` can only lengthen distances of a landmark ``x`` if it lies
on some ``C``-shortest path from ``x``, which requires the tightness
condition ``|d_C(x, u) - d_C(x, v)| = 1`` for some candidate ``C ∋ l``.
Landmarks with no tight deleted edge keep their tables verbatim; dirty
landmarks are re-swept from scratch with the index's own builder, so a
re-sweep runs the same code as the build.  A relabel is treated as
delete(old label) + insert(new label).

ChromLand repair
----------------
Falls back to per-landmark sweep rebuilds: only the mono/bi sweeps whose
constraint mask intersects the delta's touched labels are re-run through
the batched BFS kernel; everything else is carried over.

Every PowCov repair publishes a new :class:`~repro.core.powcov.table.
PowCovTable`: clean landmarks keep their slice of the old table, repaired
and re-swept ones contribute new arrays, and one concatenation assembles
the result — the old columns (possibly a read-only store mapping) are
never written, so an index opened from a store file repairs exactly like
a built one.

Fallbacks
---------
Directed or weighted PowCov indexes and unbuilt indexes rebuild in full
(reported via :attr:`RepairStats.full_rebuild`); a store-opened ChromLand
index first copies its read-only tables.  Oracles without a build step (the BFS
baselines) just rebind their graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from ..graph.delta import GraphDelta
from ..graph.fingerprint import graph_fingerprint
from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import (
    full_mask,
    iter_one_removed,
    label_bit,
    np_label_bits,
    popcount,
)
from ..obs.metrics import metrics_enabled
from ..obs.metrics import registry as _metrics_registry
from ..obs.trace import span
from ..perf.batched import batched_constrained_bfs
from .chromland import ChromLandIndex
from .powcov import PowCovIndex, WeightedPowCovIndex
from .powcov.spminimal import BIG
from .powcov.table import LandmarkArrays, PowCovTable
from .types import DistanceOracle

__all__ = [
    "RepairStats",
    "repair_index",
    "repair_powcov",
    "repair_chromland",
    "rebuild_reference",
    "assert_repair_matches_rebuild",
]


@dataclass
class RepairStats:
    """Scope accounting for one repair: what was reused vs. recomputed."""

    kind: str
    num_landmarks: int = 0
    #: landmarks whose tables were carried over verbatim.
    landmarks_clean: int = 0
    #: landmarks repaired in place by the decrease-only path.
    landmarks_repaired: int = 0
    #: landmarks fully re-swept with the wave kernel (deletions/relabels).
    landmarks_resweep: int = 0
    #: (landmark, mask) rows re-relaxed by the decrease-only BFS.
    rows_relaxed: int = 0
    #: rows reconstructed from stored entries (Theorem 1) for re-tests.
    rows_reconstructed: int = 0
    #: masks whose entry sets were recomputed and spliced.
    masks_dirty: int = 0
    #: vertices touched across all decrease-only relaxations.
    vertices_touched: int = 0
    #: ChromLand BFS sweeps re-run (mono + bi).
    sweeps_rerun: int = 0
    #: ChromLand sweeps carried over.
    sweeps_kept: int = 0
    #: the whole index was rebuilt (directed/weighted/unbuilt fallback).
    full_rebuild: bool = False
    seconds: float = field(default=0.0)

    def combine(self, other: "RepairStats") -> "RepairStats":
        """Fold another repair's scope into this one (for sequences)."""
        for name in (
            "num_landmarks", "landmarks_clean", "landmarks_repaired",
            "landmarks_resweep", "rows_relaxed", "rows_reconstructed",
            "masks_dirty", "vertices_touched", "sweeps_rerun", "sweeps_kept",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.full_rebuild = self.full_rebuild or other.full_rebuild
        self.seconds += other.seconds
        return self

    def describe(self) -> str:
        if self.kind == "chromland":
            detail = f"sweeps {self.sweeps_rerun} rerun / {self.sweeps_kept} kept"
        else:
            detail = (
                f"landmarks {self.landmarks_clean} clean / "
                f"{self.landmarks_repaired} repaired / "
                f"{self.landmarks_resweep} resweep; "
                f"{self.rows_relaxed} rows relaxed, "
                f"{self.masks_dirty} masks respliced"
            )
        tail = " (full rebuild)" if self.full_rebuild else ""
        return f"repair[{self.kind}] {detail} in {self.seconds * 1e3:.1f}ms{tail}"


def _require_descendant(
    graph: EdgeLabeledGraph, new_graph: EdgeLabeledGraph
) -> GraphDelta:
    """The delta linking ``graph`` to ``new_graph`` (one step), or raise."""
    delta = new_graph.applied_delta
    if delta is None or new_graph.parent_fingerprint is None:
        raise ValueError(
            "new_graph carries no delta lineage; build it with "
            "apply_delta/apply_edges or rebuild the index from scratch"
        )
    if int(graph_fingerprint(graph)) != int(new_graph.parent_fingerprint):
        raise ValueError(
            "new_graph does not descend from the index's graph "
            "(parent fingerprint mismatch); repair one delta at a time"
        )
    return delta


def _clear_stored_fingerprint(index: DistanceOracle) -> None:
    # A repaired index is no longer byte-for-byte "as loaded"; drop the
    # stored-file fingerprint so the session open-time re-check passes
    # against the new graph instead of rejecting the repair.
    if getattr(index, "stored_fingerprint", None) is not None:
        index.stored_fingerprint = None  # type: ignore[attr-defined]


def _flush_metrics(stats: RepairStats) -> None:
    if not metrics_enabled():
        return
    reg = _metrics_registry()
    reg.counter("dynamic.repairs").inc()
    reg.counter("dynamic.landmarks_clean").inc(stats.landmarks_clean)
    reg.counter("dynamic.landmarks_repaired").inc(stats.landmarks_repaired)
    reg.counter("dynamic.landmarks_resweep").inc(stats.landmarks_resweep)
    reg.counter("dynamic.rows_relaxed").inc(stats.rows_relaxed)
    reg.counter("dynamic.rows_reconstructed").inc(stats.rows_reconstructed)
    reg.counter("dynamic.sweeps_rerun").inc(stats.sweeps_rerun)
    if stats.full_rebuild:
        reg.counter("dynamic.full_rebuilds").inc()
    rows = stats.rows_relaxed + stats.rows_reconstructed + stats.sweeps_rerun
    reg.histogram("dynamic.repair_rows", lo=1.0, hi=1e6, per_decade=5).observe(
        max(1.0, float(rows))
    )
    reg.histogram(
        "dynamic.repair_seconds", lo=1e-5, hi=100.0, per_decade=5
    ).observe(max(1e-5, stats.seconds))


# ----------------------------------------------------------------------
# Theorem-1 reconstruction helpers (shared by both repair paths)
# ----------------------------------------------------------------------
def _endpoint_distances(
    entries: LandmarkArrays,
    landmark: int,
    vertex: int,
    masks: np.ndarray,
) -> np.ndarray:
    """``d_C(landmark, vertex)`` for every mask in ``masks`` (int32, BIG=∞).

    Theorem 1: the minimum stored distance over subset entries of the
    vertex's run in the landmark's ``(vertex, dist, mask)``-sorted arrays.
    """
    if vertex == landmark:
        return np.zeros(len(masks), dtype=np.int32)
    vertices, dists, stored_masks = entries
    lo, hi = np.searchsorted(vertices, [vertex, vertex + 1])
    if lo == hi:
        return np.full(len(masks), BIG, dtype=np.int32)
    pair_dists = dists[lo:hi].astype(np.int32)
    pair_masks = stored_masks[lo:hi]
    subset = (pair_masks[None, :] & masks[:, None]) == pair_masks[None, :]
    stored = np.where(subset, pair_dists[None, :], np.int32(BIG))
    return stored.min(axis=1).astype(np.int32)


def _reconstruct_row(
    flat_vertices: np.ndarray,
    flat_dists: np.ndarray,
    flat_masks: np.ndarray,
    landmark: int,
    num_vertices: int,
    mask: int,
) -> np.ndarray:
    """The full old distance row ``d_mask(landmark, ·)`` from stored entries."""
    row = np.full(num_vertices, BIG, dtype=np.int32)
    sel = (flat_masks & mask) == flat_masks
    if sel.any():
        np.minimum.at(row, flat_vertices[sel], flat_dists[sel])
    row[landmark] = 0
    return row


#: Upper bound on one stacked subset-min table, in int32 cells (64 MiB):
#: insertion repair stacks as many landmarks per table as fit, and falls
#: back to per-mask lazy reconstruction when one landmark alone does not.
_SOS_TABLE_CELLS = 1 << 24


def _stacked_subset_min(
    contexts: list["_LandmarkRepair"],
    num_vertices: int,
    universe: int,
) -> np.ndarray:
    """Old distance rows ``d_C(landmark, ·)`` for every repairable
    landmark and **every** mask at once.

    Theorem 1 reads ``d_C`` as the minimum stored distance over subset
    entries — a subset-min zeta transform: scatter each entry into its
    exact-mask row, then sweep one label at a time taking
    ``row[C] = min(row[C], row[C without l])``.  Cost ``O(2^|L|·|L|·n)``
    per landmark, far below one entries scan per dirty mask.

    Every landmark gets a contiguous ``universe + 1``-row block in one
    stacked array (global row id ``j·(universe+1) + C`` for the ``j``-th
    context), so the scatter, the zeta sweeps, and the later Theorem 2
    gathers each run as a single numpy call across all landmarks.
    Because ``universe + 1`` is a power of two, the per-label reshape
    views never straddle a block boundary, and a block-local one-removed
    subset id is just ``global_id ^ label_bit``.  The final row is a
    shared all-``BIG`` sentinel so lattice lookups can be padded-gathered.
    """
    stride = universe + 1
    stacked = np.full(
        (len(contexts) * stride + 1, num_vertices), BIG, dtype=np.int32
    )
    slots: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    for j, ctx in enumerate(contexts):
        if len(ctx.flat_masks):
            slots.append(
                (np.int64(j) * stride + ctx.flat_masks) * num_vertices
                + ctx.flat_vertices
            )
            dists.append(ctx.flat_dists)
    if slots:
        np.minimum.at(
            stacked.reshape(-1), np.concatenate(slots), np.concatenate(dists)
        )
    # Each label bit splits every block's rows into interleaved
    # with/without sub-blocks that a reshape exposes as views — the whole
    # transform runs in place without a single row copy.
    lattice = stacked[:-1]
    for label in range(universe.bit_length()):
        step = label_bit(label)
        view = lattice.reshape(-1, 2, step, num_vertices)
        np.minimum(view[:, 1], view[:, 0], out=view[:, 1])
    for j, ctx in enumerate(contexts):
        lattice[j * stride:(j + 1) * stride, ctx.landmark] = 0
    return stacked


def _decrease_only_bfs_multi(
    graph: EdgeLabeledGraph,
    masks: np.ndarray,
    rows: np.ndarray,
    seed_lists: list[list[tuple[int, int]]],
) -> int:
    """Relax each ``rows[i]`` downward from ``seed_lists[i]`` over
    ``masks[i]``-allowed arcs — every row in one level-synchronous wave
    loop.  Rows are independent, so the same mask may appear for several
    landmarks' rows.

    Each row must be a valid upper bound on the new distances that is
    exact everywhere its seeds cannot improve — precisely what the old
    distance row is after an insertion.  Decrease-only relaxation is
    confluent, so batching the rows cannot change the fixpoint.  ``rows``
    must own its buffer (C-contiguous); it is updated in place.  Returns
    the number of improved (row, vertex) slots.
    """
    num_masks, num_vertices = rows.shape
    fr_pairs: list[int] = []
    for i, seeds in enumerate(seed_lists):
        for vertex, dist in seeds:
            if dist < rows[i, vertex]:
                rows[i, vertex] = dist
                fr_pairs.append(i * num_vertices + vertex)
    if not fr_pairs:
        return 0
    frontier = np.unique(np.asarray(fr_pairs, dtype=np.int64))
    touched = len(frontier)
    indptr, neighbors = graph.indptr, graph.neighbors
    arc_bits = np_label_bits(graph.edge_labels)
    flat_rows = rows.reshape(-1)
    # COO frontier: (row, vertex) pairs, expanded arc-by-arc, so the work
    # per wave is proportional to the arcs actually leaving each row's
    # own frontier — no dense (row, arc) cross product.
    while len(frontier):
        fr_rows = frontier // num_vertices
        fr_verts = frontier - fr_rows * num_vertices
        starts = indptr[fr_verts]
        counts = indptr[fr_verts + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        ends = np.cumsum(counts)
        arcs = np.arange(total, dtype=np.int64) - np.repeat(
            ends - counts, counts
        )
        arcs += np.repeat(starts, counts)
        pair_rows = np.repeat(fr_rows, counts)
        cand_all = np.repeat(
            flat_rows[frontier] + np.int32(1), counts
        )
        keep = (masks[pair_rows] & arc_bits[arcs]) != 0
        targets = neighbors[arcs[keep]].astype(np.int64)
        slots = pair_rows[keep] * num_vertices + targets
        cand = cand_all[keep]
        improving = cand < flat_rows[slots]
        slots = slots[improving]
        if not len(slots):
            break
        cand = cand[improving]
        before = flat_rows[slots]
        np.minimum.at(flat_rows, slots, cand)
        frontier = np.unique(slots[flat_rows[slots] < before])
        touched += len(frontier)
    return touched


# ----------------------------------------------------------------------
# PowCov repair
# ----------------------------------------------------------------------
def _deletion_dirty(
    graph: EdgeLabeledGraph,
    entries: LandmarkArrays,
    landmark: int,
    deletions: list[tuple[int, int, int]],
) -> bool:
    """True iff some deleted edge may sit on a shortest path of ``landmark``.

    Edge ``(u, v, l)`` can only carry a ``C``-shortest path (``C ∋ l``)
    when ``|d_C(x, u) - d_C(x, v)| = 1`` with both sides finite; if no
    deleted edge is tight for any candidate mask, every distance row — and
    therefore every SP-minimal entry — survives the deletion verbatim.
    """
    incident = graph.incident_label_mask(landmark)
    if incident == 0:
        return False
    universe = full_mask(graph.num_labels)
    for u, v, label in deletions:
        bit = label_bit(label)
        affected = np.asarray(
            [c for c in range(1, universe + 1) if c & incident and c & bit],
            dtype=np.int64,
        )
        if len(affected) == 0:
            continue
        du = _endpoint_distances(entries, landmark, u, affected)
        dv = _endpoint_distances(entries, landmark, v, affected)
        tight = (du < BIG) & (dv < BIG) & (np.abs(du - dv) == 1)
        if tight.any():
            return True
    return False


def _insertion_seeds(
    new_graph: EdgeLabeledGraph,
    entries: LandmarkArrays,
    landmark: int,
    insertions: list[tuple[int, int, int]],
) -> tuple[dict[int, list[tuple[int, int]]], list[int]] | None:
    """Steps 1–2 of insertion repair: seeds per improvable mask + dirty set.

    Returns ``None`` when no inserted edge can improve any of the
    landmark's rows (the landmark is clean).  Otherwise returns the
    per-mask BFS seeds and the sorted dirty masks — improved rows plus
    their one-label-added supersets, whose Theorem 2 test reads the
    improved subset rows.
    """
    incident = new_graph.incident_label_mask(landmark)
    if incident == 0:
        return None
    universe = full_mask(new_graph.num_labels)
    inserted_bits = 0
    for _, _, label in insertions:
        inserted_bits |= label_bit(label)
    affected = np.asarray(
        [c for c in range(1, universe + 1) if c & incident and c & inserted_bits],
        dtype=np.int64,
    )
    if len(affected) == 0:
        return None

    # Step 1: which affected masks can any inserted edge actually improve?
    # (old endpoint distances reconstructed straight from the entries).
    seeds_by_mask: dict[int, list[tuple[int, int]]] = {}
    for u, v, label in insertions:
        bit = label_bit(label)
        positions = np.nonzero((affected & bit) != 0)[0]
        if len(positions) == 0:
            continue
        masks = affected[positions]
        du = _endpoint_distances(entries, landmark, u, masks)
        dv = _endpoint_distances(entries, landmark, v, masks)
        improves_v = du + np.int32(1) < dv
        improves_u = dv + np.int32(1) < du
        for j in np.nonzero(improves_v | improves_u)[0]:
            mask = int(masks[j])
            if improves_v[j]:
                seeds_by_mask.setdefault(mask, []).append((v, int(du[j]) + 1))
            else:
                seeds_by_mask.setdefault(mask, []).append((u, int(dv[j]) + 1))
    if not seeds_by_mask:
        return None

    # Step 2: the dirty closure.
    dirty: set[int] = set(seeds_by_mask)
    for mask in list(seeds_by_mask):
        rest = universe & ~mask
        while rest:
            bit = rest & -rest
            dirty.add(mask | bit)
            rest ^= bit
    return seeds_by_mask, sorted(dirty)


@dataclass
class _LandmarkRepair:
    """Per-landmark state threaded between the prepare and finish phases.

    The decrease-only relaxation (step 3) runs once, globally, over every
    repairable landmark's improved rows stacked into a single frontier
    matrix — the wave kernel only reads per-row label masks, never the
    landmark identity, and sharing one wave loop amortises the per-wave
    dispatch overhead across landmarks.  This carrier splits the repair
    around that global step.
    """

    #: position of the landmark in ``index.landmarks``.
    slot: int
    #: the landmark's stored entries (its slice of the old table).
    entries: LandmarkArrays
    landmark: int
    incident: int
    universe: int
    seeds_by_mask: dict[int, list[tuple[int, int]]]
    dirty_sorted: list[int]
    flat_vertices: np.ndarray
    flat_dists: np.ndarray
    flat_masks: np.ndarray
    improved: list[int]
    improved_arr: np.ndarray
    #: old improved rows, then the post-delta rows once relaxed
    #: (assigned after prepare, once the subset-min source is chosen).
    work: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))


def _prepare_insertion_repair(
    new_graph: EdgeLabeledGraph,
    slot: int,
    entries: LandmarkArrays,
    landmark: int,
    prepared: tuple[dict[int, list[tuple[int, int]]], list[int]],
    stats: RepairStats,
) -> _LandmarkRepair:
    """Everything before step 3, over the landmark's stored entries."""
    seeds_by_mask, dirty_sorted = prepared
    flat_vertices, stored_dists, flat_masks = entries
    improved = sorted(seeds_by_mask)
    stats.rows_reconstructed += len(improved)
    stats.rows_relaxed += len(improved)
    return _LandmarkRepair(
        slot=slot,
        entries=entries,
        landmark=landmark,
        incident=new_graph.incident_label_mask(landmark),
        universe=full_mask(new_graph.num_labels),
        seeds_by_mask=seeds_by_mask,
        dirty_sorted=dirty_sorted,
        flat_vertices=flat_vertices,
        flat_dists=stored_dists.astype(np.int32),
        flat_masks=flat_masks,
        improved=improved,
        improved_arr=np.asarray(improved, dtype=np.int64),
    )


def _splice_pairs(
    ctx: _LandmarkRepair,
    rem_idx: np.ndarray,
    add_verts: np.ndarray,
    add_dists: np.ndarray,
    add_masks: np.ndarray,
) -> LandmarkArrays:
    """The landmark's new ``(vertex, dist, mask)`` arrays after exact edits.

    ``rem_idx`` indexes the stored entries to drop; the ``add_*`` triples
    are the new entries.  Only the runs of vertices with an actual edit
    are re-sorted; they are merged back between the untouched runs, which
    keep their order.  The stored arrays are never written.
    """
    if len(rem_idx) == 0 and len(add_verts) == 0:
        return ctx.entries
    vertices, dists, masks = ctx.entries
    touched = np.isin(vertices, np.concatenate([vertices[rem_idx], add_verts]))
    rest = touched.copy()
    rest[rem_idx] = False
    block_vertices = np.concatenate([vertices[rest], add_verts]).astype(np.int64)
    block_dists = np.concatenate([dists[rest], add_dists]).astype(np.int64)
    block_masks = np.concatenate([masks[rest], add_masks]).astype(np.int64)
    order = np.lexsort((block_masks, block_dists, block_vertices))
    # Touched and untouched vertex runs are disjoint, so the vertex alone
    # places each re-sorted block entry among the untouched runs.
    kept = ~touched
    at = np.searchsorted(vertices[kept], block_vertices[order])
    return (
        np.insert(vertices[kept], at, block_vertices[order]),
        np.insert(dists[kept], at, block_dists[order]),
        np.insert(masks[kept], at, block_masks[order]),
    )


def _finish_insertion_repairs(
    new_graph: EdgeLabeledGraph,
    contexts: list[_LandmarkRepair],
    stacked: np.ndarray,
    all_rows: np.ndarray,
    stats: RepairStats,
) -> list[LandmarkArrays]:
    """Steps 4–5 for one chunk of repairable landmarks in one matrix pass.

    ``all_rows`` must already hold the *post-delta* improved rows of all
    ``contexts``, concatenated in context order (the decrease-only
    relaxation ran between prepare and finish); ``stacked`` is their
    shared subset-min lattice from :func:`_stacked_subset_min`, still
    carrying the *old* rows.  Returns each context's new entry arrays.
    """
    num_vertices = new_graph.num_vertices
    universe = contexts[0].universe
    stride = universe + 1
    sentinel = len(contexts) * stride
    steps = np.asarray(
        [label_bit(label) for label in range(universe.bit_length())],
        dtype=np.int64,
    )

    # Global lattice row ids of the improved masks, block-offset per
    # landmark; overwrite their rows so the lattice holds the post-delta
    # distances everywhere.
    imp_ids = np.concatenate(
        [
            np.int64(j) * stride + ctx.improved_arr
            for j, ctx in enumerate(contexts)
        ]
    )
    landmark_rows = np.concatenate(
        [
            np.full(len(ctx.improved), ctx.landmark, dtype=np.int64)
            for ctx in contexts
        ]
    )
    imp_masks = imp_ids & np.int64(stride - 1)
    stacked[imp_ids] = all_rows

    # Step 4a — improved masks (the few whose rows actually changed):
    # full Theorem 2 emission recompute over the post-delta rows
    # (Observation 2's ``d >= |C|`` filter is implied by minimality, so
    # applying it keeps the output identical).  Rows of masks disjoint
    # from the landmark's incident labels (and mask 0) are all-BIG
    # outside the landmark column, so folding them into the one-removed
    # minimum matches the skip in the lazy path; absent labels route to
    # the shared sentinel row (padded gather).
    candidate = all_rows < BIG
    candidate[np.arange(len(imp_ids)), landmark_rows] = False
    pops = np.asarray(
        [popcount(mask) for ctx in contexts for mask in ctx.improved],
        dtype=np.int32,
    )
    candidate &= all_rows >= pops[:, None]
    sub_ids = np.where(
        (imp_masks[:, None] & steps[None, :]) != 0,
        imp_ids[:, None] ^ steps[None, :],
        sentinel,
    )
    best = stacked[sub_ids].min(axis=1)
    minimal = candidate & (all_rows < best)
    mask_idx, vertex_idx = np.nonzero(minimal)
    emit_ids = imp_ids[mask_idx]
    emit_dists = all_rows[mask_idx, vertex_idx]

    # Step 4b — dirty-but-not-improved masks: their rows are unchanged
    # and their one-removed minimum can only *decrease* (some subset row
    # improved), so stored entries can only fall out of minimality —
    # never join it.  A survival test on the stored pairs alone replaces
    # the full-row recompute.
    stored_imp_idx: list[np.ndarray] = []
    check_idx: list[np.ndarray] = []
    chk_parts: list[np.ndarray] = []
    chk_vert_parts: list[np.ndarray] = []
    chk_dist_parts: list[np.ndarray] = []
    stored_parts: list[np.ndarray] = []
    stored_vert_parts: list[np.ndarray] = []
    stored_dist_parts: list[np.ndarray] = []
    for j, ctx in enumerate(contexts):
        stats.masks_dirty += len(ctx.dirty_sorted)
        improved_lut = np.zeros(stride, dtype=bool)
        improved_lut[ctx.improved_arr] = True
        dirty_lut = np.zeros(stride, dtype=bool)
        dirty_lut[np.asarray(ctx.dirty_sorted, dtype=np.int64)] = True
        stored_imp = improved_lut[ctx.flat_masks]
        check_sel = dirty_lut[ctx.flat_masks] & ~stored_imp
        stored_imp_idx.append(np.flatnonzero(stored_imp))
        check_idx.append(np.flatnonzero(check_sel))
        base = np.int64(j) * stride
        chk_parts.append(base + ctx.flat_masks[check_sel])
        chk_vert_parts.append(ctx.flat_vertices[check_sel])
        chk_dist_parts.append(ctx.flat_dists[check_sel])
        stored_parts.append(base + ctx.flat_masks[stored_imp])
        stored_vert_parts.append(ctx.flat_vertices[stored_imp])
        stored_dist_parts.append(ctx.flat_dists[stored_imp])
    chk_ids = np.concatenate(chk_parts)
    chk_verts = np.concatenate(chk_vert_parts)
    chk_dists = np.concatenate(chk_dist_parts)
    sub_chk = np.where(
        ((chk_ids & np.int64(stride - 1))[:, None] & steps[None, :]) != 0,
        chk_ids[:, None] ^ steps[None, :],
        sentinel,
    )
    best_chk = stacked[sub_chk, chk_verts[:, None]].min(axis=1)
    survives = chk_dists < best_chk

    # Step 5 — change detection and splice.  Non-improved masks change
    # iff a stored pair was dropped; improved masks change iff their
    # stored and emitted (mask, vertex, dist) key sets differ (each key
    # occurs at most once per side, so keys seen exactly once in the
    # concatenation are the symmetric difference).
    key_base = np.int64(BIG) * num_vertices
    key_stored = (
        np.concatenate(stored_parts) * key_base
        + np.concatenate(stored_vert_parts) * np.int64(BIG)
        + np.concatenate(stored_dist_parts)
    )
    key_emit = emit_ids * key_base + vertex_idx * np.int64(BIG) + emit_dists
    uniq, counts = np.unique(
        np.concatenate([key_stored, key_emit]), return_counts=True
    )
    diff_keys = uniq[counts == 1]
    rem_stored = np.isin(key_stored, diff_keys)
    add_sel = np.isin(key_emit, diff_keys)

    # Split the edits back per landmark: stored/check pairs by their
    # per-context part lengths, emissions by improved-row offset
    # (``mask_idx`` ascends, so one searchsorted per boundary).
    stored_bounds = np.cumsum([0] + [len(part) for part in stored_parts])
    chk_bounds = np.cumsum([0] + [len(part) for part in chk_parts])
    row_bounds = np.cumsum([0] + [len(ctx.improved) for ctx in contexts])
    add_pos = np.flatnonzero(add_sel)
    add_split = np.searchsorted(mask_idx[add_pos], row_bounds)
    repaired: list[LandmarkArrays] = []
    for j, ctx in enumerate(contexts):
        rem_imp = stored_imp_idx[j][
            rem_stored[stored_bounds[j]:stored_bounds[j + 1]]
        ]
        rem_chk = check_idx[j][~survives[chk_bounds[j]:chk_bounds[j + 1]]]
        pos = add_pos[add_split[j]:add_split[j + 1]]
        repaired.append(_splice_pairs(
            ctx,
            np.concatenate([rem_imp, rem_chk]),
            vertex_idx[pos],
            emit_dists[pos],
            imp_masks[mask_idx[pos]],
        ))
    return repaired


def _finish_insertion_repair(
    new_graph: EdgeLabeledGraph, ctx: _LandmarkRepair, stats: RepairStats
) -> LandmarkArrays:
    """Lazy steps 4–5 for one landmark (no dense lattice in memory).

    ``ctx.work`` must already hold the *post-delta* improved rows (the
    decrease-only relaxation ran between prepare and finish);
    every other row is reconstructed from the stored entries on demand.
    Returns the landmark's new entry arrays.
    """
    num_vertices = new_graph.num_vertices
    landmark = ctx.landmark
    incident = ctx.incident
    dirty_sorted = ctx.dirty_sorted
    flat_vertices = ctx.flat_vertices
    flat_dists = ctx.flat_dists
    flat_masks = ctx.flat_masks
    work = ctx.work

    improved_pos = {mask: i for i, mask in enumerate(ctx.improved)}
    old_rows: dict[int, np.ndarray] = {}

    def row_for(mask: int) -> np.ndarray | None:
        """Post-delta distance row of ``mask`` (None = all-unreachable)."""
        pos = improved_pos.get(mask)
        if pos is not None:
            return work[pos]
        if mask & incident == 0:
            return None  # Observation 1: landmark isolated, row all-BIG
        row = old_rows.get(mask)
        if row is None:
            row = _reconstruct_row(
                flat_vertices, flat_dists, flat_masks, landmark,
                num_vertices, mask,
            )
            stats.rows_reconstructed += 1
            old_rows[mask] = row
        return row

    # Step 4: recompute the SP-minimal entries of every dirty mask
    # (Theorem 2 over one-removed subset rows; Observation 2's
    # ``d >= |C|`` filter is implied by minimality, so applying it keeps
    # the output identical).
    stats.masks_dirty += len(dirty_sorted)
    add_verts: list[np.ndarray] = []
    add_dists: list[np.ndarray] = []
    add_masks: list[np.ndarray] = []
    for mask in dirty_sorted:
        row = row_for(mask)
        assert row is not None  # dirty masks intersect ``incident``
        candidate_1d = row < BIG
        candidate_1d[landmark] = False
        candidate_1d &= row >= popcount(mask)
        best_1d: np.ndarray | None = None
        for sub in iter_one_removed(mask):
            if sub == 0:
                continue
            sub_row = row_for(sub)
            if sub_row is None:
                continue
            best_1d = (
                sub_row if best_1d is None else np.minimum(best_1d, sub_row)
            )
        minimal_1d = (
            candidate_1d if best_1d is None else candidate_1d & (row < best_1d)
        )
        vertices = np.flatnonzero(minimal_1d)
        add_verts.append(vertices)
        add_dists.append(row[vertices])
        add_masks.append(np.full(len(vertices), mask, dtype=np.int64))

    # Step 5: splice — drop every stored entry with a dirty mask, insert
    # the recomputed ones.
    dirty_lut = np.zeros(ctx.universe + 1, dtype=bool)
    dirty_lut[np.asarray(dirty_sorted, dtype=np.int64)] = True
    return _splice_pairs(
        ctx,
        np.flatnonzero(dirty_lut[flat_masks]),
        np.concatenate(add_verts),
        np.concatenate(add_dists),
        np.concatenate(add_masks),
    )


def repair_powcov(
    index: PowCovIndex, new_graph: EdgeLabeledGraph
) -> RepairStats:
    """Absorb ``new_graph``'s delta into a built PowCov index, in place.

    The repaired index is bit-identical to ``PowCovIndex(new_graph,
    landmarks, ...).build()``.  Directed and weighted indexes (and
    indexes that were never built) fall back to a full rebuild.
    """
    delta = _require_descendant(index.graph, new_graph)
    if (
        index.table is not None
        and index.table.dist.dtype.kind == "f"
        and not isinstance(index, WeightedPowCovIndex)
    ):
        raise ValueError(
            "cannot repair a weighted PowCov index opened from a store "
            "file: the file does not hold the arc weights"
        )
    stats = RepairStats(kind="powcov", num_landmarks=len(index.landmarks))
    started = perf_counter()
    with span("dynamic.repair_powcov", ops=delta.num_ops) as repair_span:
        fine_grained = (
            index._built
            and not index.graph.directed
            and not isinstance(index, WeightedPowCovIndex)
        )
        if not fine_grained:
            index.graph = new_graph
            index.build()
            stats.full_rebuild = True
        else:
            _repair_table(index, new_graph, delta, stats)
            index.graph = new_graph
        repair_span.count("landmarks_resweep", stats.landmarks_resweep)
        repair_span.count("rows_relaxed", stats.rows_relaxed)
    _clear_stored_fingerprint(index)
    stats.seconds = perf_counter() - started
    _flush_metrics(stats)
    return stats


def _repair_table(
    index: PowCovIndex,
    new_graph: EdgeLabeledGraph,
    delta: GraphDelta,
    stats: RepairStats,
) -> None:
    """Incremental repair of an undirected, unweighted, built index."""
    table = index.table
    assert table is not None
    old_graph = index.graph
    insertions = list(delta.insertions) + [
        (u, v, new_label) for u, v, _old, new_label in delta.relabels
    ]
    deletions = list(delta.deletions) + [
        (u, v, old_label) for u, v, old_label, _new in delta.relabels
    ]
    parts = [table.landmark_slice(i) for i in range(len(index.landmarks))]
    repairable: list[int] = []
    for i, landmark in enumerate(index.landmarks):
        if deletions and _deletion_dirty(old_graph, parts[i], landmark, deletions):
            result = index._build_one(landmark, new_graph)
            parts[i] = result.arrays
            if index.per_landmark:
                index.per_landmark[i] = result.stats_only()
            stats.landmarks_resweep += 1
        else:
            repairable.append(i)
    contexts: list[_LandmarkRepair] = []
    if insertions and repairable:
        for i in repairable:
            prepared = _insertion_seeds(
                new_graph, parts[i], index.landmarks[i], insertions
            )
            if prepared is None:
                stats.landmarks_clean += 1
                continue
            contexts.append(
                _prepare_insertion_repair(
                    new_graph, i, parts[i], index.landmarks[i], prepared, stats
                )
            )
            stats.landmarks_repaired += 1
    else:
        stats.landmarks_clean += len(repairable)
    if contexts:
        for ctx, repaired in zip(
            contexts, _repair_insertions(new_graph, contexts, stats)
        ):
            parts[ctx.slot] = repaired
    if stats.landmarks_resweep or contexts:
        # Publish new arrays; the old columns are never written.
        index.table = PowCovTable.from_landmarks(parts, new_graph.num_vertices)


def _repair_insertions(
    new_graph: EdgeLabeledGraph,
    contexts: list[_LandmarkRepair],
    stats: RepairStats,
) -> list[LandmarkArrays]:
    """Steps 3–5 for every repairable landmark: new arrays per context."""
    num_vertices = new_graph.num_vertices
    universe = contexts[0].universe
    stride = universe + 1
    # Landmarks per stacked lattice: ``per_chunk * stride`` rows plus the
    # sentinel row stay within _SOS_TABLE_CELLS.
    per_chunk = (_SOS_TABLE_CELLS // num_vertices - 1) // stride
    repaired: list[LandmarkArrays] = []
    if per_chunk < 1:
        # One landmark's lattice alone is over the bound: reconstruct
        # each improved row lazily from the stored entries.
        for ctx in contexts:
            ctx.work = np.stack(
                [
                    _reconstruct_row(
                        ctx.flat_vertices, ctx.flat_dists, ctx.flat_masks,
                        ctx.landmark, num_vertices, mask,
                    )
                    for mask in ctx.improved
                ]
            )
            ctx.work = _relax_improved_rows(new_graph, [ctx], stats)
            repaired.append(_finish_insertion_repair(new_graph, ctx, stats))
        return repaired
    for lo in range(0, len(contexts), per_chunk):
        chunk = contexts[lo:lo + per_chunk]
        # One zeta transform recovers every old row of the chunk's
        # landmarks at once; the stacked lattice is dropped as soon as
        # the chunk is repaired.
        stacked = _stacked_subset_min(chunk, num_vertices, universe)
        for j, ctx in enumerate(chunk):
            # Fancy index -> a *copy* of the old improved rows.
            ctx.work = stacked[j * stride + ctx.improved_arr]
        all_rows = _relax_improved_rows(new_graph, chunk, stats)
        repaired.extend(
            _finish_insertion_repairs(new_graph, chunk, stacked, all_rows, stats)
        )
    return repaired


def _relax_improved_rows(
    new_graph: EdgeLabeledGraph,
    contexts: list[_LandmarkRepair],
    stats: RepairStats,
) -> np.ndarray:
    """Step 3: one decrease-only frontier relaxation over every context's
    improved rows (``ctx.work``) at once; returns them concatenated."""
    all_rows = np.concatenate([ctx.work for ctx in contexts])
    all_masks = np.concatenate([ctx.improved_arr for ctx in contexts])
    seed_lists = [
        ctx.seeds_by_mask[mask] for ctx in contexts for mask in ctx.improved
    ]
    stats.vertices_touched += _decrease_only_bfs_multi(
        new_graph, all_masks, all_rows, seed_lists
    )
    return all_rows


# ----------------------------------------------------------------------
# ChromLand repair
# ----------------------------------------------------------------------
def repair_chromland(
    index: ChromLandIndex, new_graph: EdgeLabeledGraph
) -> RepairStats:
    """Absorb ``new_graph``'s delta into a built ChromLand index, in place.

    Per-landmark granularity: only the mono/bi sweeps whose constraint
    mask intersects the delta's touched labels are re-run (on the new
    graph, through the same batched BFS kernel as the build); the rest of
    the tables are carried over, and the result is bit-identical to a
    fresh build.
    """
    delta = _require_descendant(index.graph, new_graph)
    stats = RepairStats(kind="chromland", num_landmarks=index.num_landmarks)
    started = perf_counter()
    if getattr(index, "source_store", None) is not None:
        # Store sections are read-only memmaps (or arrays the store caches):
        # repair a private copy, which no longer mirrors the file.
        index.mono = np.array(index.mono)
        index.bi = np.array(index.bi)
        if index.mono_in is not None:
            index.mono_in = np.array(index.mono_in)
        index.source_store = None  # type: ignore[attr-defined]
    if not index._built:
        index.graph = new_graph
        index.build()
        stats.full_rebuild = True
        stats.seconds = perf_counter() - started
        _flush_metrics(stats)
        return stats
    with span("dynamic.repair_chromland", ops=delta.num_ops) as repair_span:
        touched = delta.touched_label_mask()
        color_values = sorted({int(c) for c in index.colors})
        landmarks_by_color = {
            color: np.nonzero(index.colors == color)[0] for color in color_values
        }
        directed = new_graph.directed
        graphs: tuple[EdgeLabeledGraph, ...] = (new_graph,)
        if directed:
            graphs = (new_graph, new_graph.reversed())
        jobs: list[tuple[int, int, int]] = []  # (graph_index, source, mask)
        unpackers: list[tuple[Any, ...]] = []
        for i in range(index.num_landmarks):
            x = int(index.landmarks[i])
            own_color = int(index.colors[i])
            own_bit = label_bit(own_color)
            if own_bit & touched:
                jobs.append((0, x, own_bit))
                unpackers.append(("mono", i))
                if directed:
                    jobs.append((1, x, own_bit))
                    unpackers.append(("mono_in", i))
            else:
                stats.sweeps_kept += 1 + (1 if directed else 0)
            for other_color in color_values:
                if other_color == own_color:
                    continue
                mask = own_bit | label_bit(other_color)
                if mask & touched:
                    jobs.append((0, x, mask))
                    unpackers.append(("bi", i, other_color))
                else:
                    stats.sweeps_kept += 1
        stats.sweeps_rerun = len(jobs)
        repair_span.count("sweeps_rerun", len(jobs))
        if jobs:
            by_graph: dict[int, list[int]] = {}
            for position, (graph_index, _s, _m) in enumerate(jobs):
                by_graph.setdefault(graph_index, []).append(position)
            results: list[np.ndarray | None] = [None] * len(jobs)
            for graph_index, positions in by_graph.items():
                dist = batched_constrained_bfs(
                    graphs[graph_index],
                    [jobs[p][1] for p in positions],
                    masks=[jobs[p][2] for p in positions],
                )
                for row, p in enumerate(positions):
                    results[p] = dist[row]
            assert index.mono is not None and index.bi is not None
            for what, row in zip(unpackers, results):
                assert row is not None
                if what[0] == "mono":
                    index.mono[what[1]] = row
                elif what[0] == "mono_in":
                    assert index.mono_in is not None
                    index.mono_in[what[1]] = row
                else:
                    _tag, i, other_color = what
                    targets = landmarks_by_color[other_color]
                    # ``row`` is vertex-indexed; gather at the landmark
                    # vertices of the target color.
                    index.bi[i, targets] = row[index.landmarks[targets]]
            if not directed:
                # Same symmetrization as the build; untouched cells are
                # already symmetric, so re-applying it is idempotent there.
                from ..graph.traversal import UNREACHABLE

                both = np.where(
                    index.bi == UNREACHABLE, np.iinfo(np.int32).max, index.bi
                )
                both = np.minimum(both, both.T)
                index.bi = np.where(
                    both == np.iinfo(np.int32).max, UNREACHABLE, both
                )
    index.graph = new_graph
    _clear_stored_fingerprint(index)
    stats.seconds = perf_counter() - started
    _flush_metrics(stats)
    return stats


# ----------------------------------------------------------------------
# Dispatch + differential harness
# ----------------------------------------------------------------------
def repair_index(index: DistanceOracle, new_graph: EdgeLabeledGraph) -> RepairStats:
    """Repair any oracle in place so it serves ``new_graph`` exactly.

    PowCov and ChromLand use their incremental paths; other index types
    rebuild on the new graph; oracles without a build step (the BFS
    baselines answer from the graph directly) just rebind.
    """
    if isinstance(index, ChromLandIndex):
        return repair_chromland(index, new_graph)
    if isinstance(index, PowCovIndex):
        return repair_powcov(index, new_graph)
    _require_descendant(index.graph, new_graph)
    stats = RepairStats(kind=index.name)
    started = perf_counter()
    index.graph = new_graph
    build = getattr(index, "build", None)
    if callable(build):
        build()
        stats.full_rebuild = True
    _clear_stored_fingerprint(index)
    stats.seconds = perf_counter() - started
    _flush_metrics(stats)
    return stats


def rebuild_reference(index: DistanceOracle) -> DistanceOracle:
    """A from-scratch rebuild of ``index`` on its (current) graph."""
    if isinstance(index, ChromLandIndex):
        return ChromLandIndex(
            index.graph,
            [int(x) for x in index.landmarks],
            [int(c) for c in index.colors],
            query_mode=index.query_mode,
        ).build()
    if isinstance(index, PowCovIndex) and not isinstance(
        index, WeightedPowCovIndex
    ):
        return PowCovIndex(
            index.graph,
            index.landmarks,
            builder=index.builder,
            estimator=index.estimator,
        ).build()
    raise TypeError(f"no rebuild reference for {type(index).__name__}")


def _assert_same_table(
    landmarks: list[int], got: PowCovTable, want: PowCovTable, side: str
) -> None:
    """Raise with the first diverging landmark's vertices unless equal."""
    if got == want:
        return
    for i, landmark in enumerate(landmarks):
        ours = set(zip(*(col.tolist() for col in got.landmark_slice(i))))
        theirs = set(zip(*(col.tolist() for col in want.landmark_slice(i))))
        if ours != theirs:
            vertices = sorted({u for u, _dist, _mask in ours ^ theirs})
            raise AssertionError(
                f"repair diverged: landmark {landmark} entries differ at "
                f"vertices {vertices[:5]}{side}"
            )
    raise AssertionError(
        f"repair diverged: table dtypes or shape differ from rebuild{side}"
    )


def assert_repair_matches_rebuild(
    index: DistanceOracle,
    queries: list[tuple[int, int, int]] | None = None,
) -> None:
    """Differential check: a repaired index must equal a fresh rebuild.

    Compares the stored tables bit-for-bit (PowCov tables, ChromLand
    matrices) and, when ``queries`` are given, asserts exact answer
    equality.  Raises ``AssertionError`` with a located diagnosis on the
    first divergence.
    """
    reference = rebuild_reference(index)
    if isinstance(index, ChromLandIndex):
        assert isinstance(reference, ChromLandIndex)
        assert index.mono is not None and reference.mono is not None
        assert np.array_equal(index.mono, reference.mono), (
            "repair diverged: mono table mismatch vs rebuild"
        )
        assert index.bi is not None and reference.bi is not None
        assert np.array_equal(index.bi, reference.bi), (
            "repair diverged: bi table mismatch vs rebuild"
        )
        if index.mono_in is not None or reference.mono_in is not None:
            assert index.mono_in is not None and reference.mono_in is not None
            assert np.array_equal(index.mono_in, reference.mono_in), (
                "repair diverged: mono_in table mismatch vs rebuild"
            )
    elif isinstance(index, PowCovIndex):
        assert isinstance(reference, PowCovIndex)
        for side, got, want in zip(
            ("", " [reverse]"), index.tables(), reference.tables()
        ):
            _assert_same_table(index.landmarks, got, want, side)
    else:
        raise TypeError(f"no differential check for {type(index).__name__}")
    if queries:
        for source, target, mask in queries:
            repaired = index.query(source, target, mask)
            rebuilt = reference.query(source, target, mask)
            assert repaired == rebuilt, (
                f"repair diverged on query ({source}, {target}, {mask:#x}): "
                f"repaired={repaired} rebuilt={rebuilt}"
            )
