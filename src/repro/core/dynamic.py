"""Incremental index maintenance over versioned graph deltas.

The builders in :mod:`repro.core.powcov` and :mod:`repro.core.chromland`
assume a frozen graph; this module absorbs a
:class:`~repro.graph.delta.GraphDelta` into an *already built* index
without rebuilding from scratch, with output **bit-identical** to a fresh
build on the new graph (property-tested by
:func:`assert_repair_matches_rebuild` and ``tests/test_dynamic.py``).

PowCov repair
-------------
One path serves insertions, deletions and relabels.  Per chunk of
landmarks:

1. **Old rows.**  Theorem 1 recovers every row ``d_C(x, ·)`` from the
   stored SP-minimal entries; one subset-min zeta transform over the
   landmarks' entries lays out all ``2^|L|`` rows of each landmark at
   once (the *lattice*).
2. **Rows that may change.**  Unit-weight distances satisfy
   ``|d_C(x, u) - d_C(x, v)| ≤ 1`` along every ``C``-edge, so an
   arriving edge ``(u, v, l)`` can only change a row ``C ∋ l`` with
   ``|d_C(x, u) - d_C(x, v)| ≥ 2`` (one side reachable), and a leaving
   edge only one where it is tight (``= 1``, both sides reachable) and
   may carry a shortest path.  A relabel is a leaving old-label edge plus
   an arriving new-label edge.  Rows failing every test keep their
   distances, which is where the speedup over a rebuild comes from.
3. **Sweep.**  The candidate rows are re-run on the new graph in one
   :func:`~repro.perf.batched.batched_constrained_bfs` call, the kernel
   the build uses; the rows that differ are written into the lattice.
4. **Re-derive.**  Theorem 2 recomputes the entries of every changed
   mask and of its one-label supersets (whose minimality test reads the
   changed rows) over the post-delta lattice; they are spliced into the
   landmark's entries in place of the old ones.

Landmarks with no changed row keep their entries verbatim.

ChromLand repair
----------------
Re-runs the build's own sweeps
(:meth:`~repro.core.chromland.ChromLandIndex.run_sweeps`): only the
mono/bi sweeps whose constraint mask meets the delta's touched labels
run, on the new graph, through the batched BFS kernel; the other cells
are carried over.

Repairs publish new tables rather than write the old ones.  A PowCov
repair that changes a landmark builds a new
:class:`~repro.core.powcov.table.PowCovTable`: clean landmarks keep
their slice of the old table, re-swept ones contribute new arrays, and
one concatenation assembles the result.  A ChromLand repair writes the
re-run rows into copies of ``mono``/``mono_in``/``bi`` and assigns the
copies once every sweep has finished.  The old arrays (possibly a
read-only store mapping, or tables a reader still holds) are never
written, so an index opened from a store file repairs exactly like a
built one.

Fallbacks
---------
Directed or weighted PowCov indexes, unbuilt indexes, and indexes where
one landmark's lattice (``n·2^|L|`` cells) exceeds ``_SOS_TABLE_CELLS``
rebuild in full (reported via :attr:`RepairStats.full_rebuild`).  An
incremental repair leaves :attr:`PowCovIndex.per_landmark` as it was: it
keeps the build's counters.  Oracles without a build step (the BFS
baselines) just rebind their graph.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..graph.delta import GraphDelta
from ..graph.fingerprint import graph_fingerprint
from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import full_mask, label_bit
from ..graph.traversal import UNREACHABLE
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
    #: landmarks whose entries were re-derived from re-swept rows.
    landmarks_resweep: int = 0
    #: (landmark, mask) rows the delta may change, re-run by the BFS kernel.
    rows_swept: int = 0
    #: (landmark, mask) pairs whose entries were re-derived and spliced.
    masks_dirty: int = 0
    #: ChromLand BFS sweeps re-run (mono + bi).
    sweeps_rerun: int = 0
    #: ChromLand sweeps carried over.
    sweeps_kept: int = 0
    #: the whole index was rebuilt (directed/weighted/unbuilt/oversized
    #: lattice fallback).
    full_rebuild: bool = False
    seconds: float = field(default=0.0)

    def combine(self, other: "RepairStats") -> "RepairStats":
        """Fold another repair's scope into this one (for sequences)."""
        for name in (
            "num_landmarks", "landmarks_clean", "landmarks_resweep",
            "rows_swept", "masks_dirty", "sweeps_rerun", "sweeps_kept",
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
                f"{self.landmarks_resweep} resweep; "
                f"{self.rows_swept} rows swept, "
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
    reg.counter("dynamic.landmarks_resweep").inc(stats.landmarks_resweep)
    reg.counter("dynamic.rows_swept").inc(stats.rows_swept)
    reg.counter("dynamic.sweeps_rerun").inc(stats.sweeps_rerun)
    if stats.full_rebuild:
        reg.counter("dynamic.full_rebuilds").inc()
    rows = stats.rows_swept + stats.sweeps_rerun
    reg.histogram("dynamic.repair_rows", lo=1.0, hi=1e6, per_decade=5).observe(
        max(1.0, float(rows))
    )
    reg.histogram(
        "dynamic.repair_seconds", lo=1e-5, hi=100.0, per_decade=5
    ).observe(max(1e-5, stats.seconds))


# ----------------------------------------------------------------------
# PowCov repair
# ----------------------------------------------------------------------
#: Upper bound on one stacked subset-min lattice, in int32 cells (64 MiB):
#: repair stacks as many landmarks per lattice as fit, and an index where
#: one landmark's lattice alone does not fit rebuilds in full.
_SOS_TABLE_CELLS = 1 << 24


def _landmarks_per_lattice(num_vertices: int, universe: int) -> int:
    """Landmarks whose ``universe + 1`` lattice rows fit in one
    ``_SOS_TABLE_CELLS`` stack (0 when a single landmark does not)."""
    return _SOS_TABLE_CELLS // max(1, num_vertices) // (universe + 1)


def _stacked_subset_min(
    parts: Sequence[LandmarkArrays],
    landmarks: Sequence[int],
    num_vertices: int,
    universe: int,
) -> np.ndarray:
    """Distance rows ``d_C(x, ·)`` for every landmark ``x`` of
    ``landmarks`` and **every** mask ``C`` at once, from the landmarks'
    stored entries ``parts`` (int32, ``BIG`` = unreachable).

    Theorem 1 reads ``d_C`` as the minimum stored distance over subset
    entries — a subset-min zeta transform: scatter each entry into its
    exact-mask row, then sweep one label at a time taking
    ``row[C] = min(row[C], row[C without l])``.  Cost ``O(2^|L|·|L|·n)``
    per landmark.

    The ``j``-th landmark owns the contiguous ``universe + 1``-row block
    starting at row ``j·(universe+1)``, so row ``j·(universe+1) + C``
    holds its ``d_C``.  Because ``universe + 1`` is a power of two, the
    per-label reshape views never straddle a block, and the row of ``C``
    with label bit ``b`` toggled is just ``row ^ b``.
    """
    stride = universe + 1
    lattice = np.full((len(parts) * stride, num_vertices), BIG, dtype=np.int32)
    flat = lattice.reshape(-1)
    for j, (vertices, dists, masks) in enumerate(parts):
        # A landmark stores at most one entry per (vertex, mask), so the
        # scatter slots are distinct and plain assignment is the scatter.
        flat[(np.int64(j) * stride + masks) * num_vertices + vertices] = dists
    # Each label bit splits every block's rows into interleaved
    # with/without halves that a reshape exposes as views, so the whole
    # transform runs in place.
    for label in range(universe.bit_length()):
        step = label_bit(label)
        view = lattice.reshape(-1, 2, step, num_vertices)
        np.minimum(view[:, 1], view[:, 0], out=view[:, 1])
    for j, landmark in enumerate(landmarks):
        lattice[j * stride:(j + 1) * stride, landmark] = 0
    return lattice


def _op_masks(
    delta: GraphDelta, universe: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ``(op, C)`` pair of the delta with ``C`` holding the op's
    label, as parallel arrays ``(u, v, C, adds)``.

    A relabel is two ops: its old label's edge leaves (``adds`` False)
    and its new label's edge arrives (``adds`` True).
    """
    ops = np.asarray(
        [(u, v, label, 1) for u, v, label in delta.insertions]
        + [(u, v, new, 1) for u, v, _old, new in delta.relabels]
        + [(u, v, label, 0) for u, v, label in delta.deletions]
        + [(u, v, old, 0) for u, v, old, _new in delta.relabels],
        dtype=np.int64,
    ).reshape(-1, 4)
    all_masks = np.arange(1, universe + 1, dtype=np.int64)
    op, mask = np.nonzero((all_masks[None, :] >> ops[:, 2:3]) & 1)
    u, v, _label, adds = ops[op].T
    return u, v, all_masks[mask], adds == 1


def _rows_the_delta_may_change(
    lattice: np.ndarray,
    op_masks: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    num_landmarks: int,
    stride: int,
) -> np.ndarray:
    """Sorted lattice rows whose distances the delta can change.

    Unit-weight BFS distances change under an arriving edge ``(u, v)``
    only if ``|d_C(x, u) - d_C(x, v)| ≥ 2`` with one side reachable, and
    under a leaving edge only if it lies on a shortest path, which needs
    ``|d_C(x, u) - d_C(x, v)| = 1`` with both sides reachable.  Edges
    failing both tests can all be removed and added at once without
    moving any distance, so testing every op against the *old* rows is
    sound for multi-op deltas.
    """
    u, v, masks, adds = op_masks
    rows = (np.arange(num_landmarks, dtype=np.int64) * stride)[:, None] + masks
    du = lattice[rows, u]
    dv = lattice[rows, v]
    gap = np.abs(du - dv)
    arrives = (np.minimum(du, dv) < BIG) & (gap >= 2)
    leaves = (np.maximum(du, dv) < BIG) & (gap == 1)
    return np.unique(rows[np.where(adds, arrives, leaves)])


def _rederive_entries(
    lattice: np.ndarray,
    changed: np.ndarray,
    landmarks: Sequence[int],
    universe: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 2 over the (post-delta) lattice for every mask whose
    entries may differ: the changed rows and their one-label supersets,
    whose minimality test reads the changed rows.

    Returns ``(dirty, ids, vertex, dist)``: the sorted dirty lattice rows,
    and the SP-minimal entries of all of them as parallel arrays sorted by
    lattice row ``ids``.
    """
    stride = universe + 1
    steps = [label_bit(label) for label in range(universe.bit_length())]
    dirty = np.unique(
        np.concatenate([changed] + [changed[(changed & b) == 0] | b for b in steps])
    )
    masks = dirty & (stride - 1)
    rows = lattice[dirty]
    # The one-removed minimum, folded one label at a time.  A mask
    # without the label reads its block's empty-mask row instead, which is
    # unreachable everywhere but at the (excluded) landmark.
    empty = dirty - masks
    best = np.full_like(rows, BIG)
    sizes = np.zeros(len(dirty), dtype=np.int64)
    for step in steps:
        has = (masks & step) != 0
        sizes += has
        np.minimum(best, lattice[np.where(has, dirty ^ step, empty)], out=best)
    # Observation 2's ``d >= |C|`` is implied by minimality; applying it
    # keeps the output identical.
    minimal = (rows < BIG) & (rows >= sizes[:, None]) & (rows < best)
    own = np.asarray(landmarks, dtype=np.int64)[dirty // stride]
    minimal[np.arange(len(dirty)), own] = False
    row, vertex = np.nonzero(minimal)
    return dirty, dirty[row], vertex, rows[row, vertex]


def _splice_pairs(
    entries: LandmarkArrays,
    dirty: np.ndarray,
    add_vertices: np.ndarray,
    add_dists: np.ndarray,
    add_masks: np.ndarray,
    num_vertices: int,
) -> LandmarkArrays:
    """A landmark's ``(vertex, dist, mask)`` arrays with the entries of
    every mask flagged in the bool table ``dirty`` replaced by the
    ``add_*`` entries.

    ``(vertex, dist, mask)`` order is the order of the int64 code
    ``(vertex·n + dist)·len(dirty) + mask``: hop distances are below
    ``n``, and the lattice bound keeps ``n²·len(dirty)`` far below 2^63.
    The kept codes are one sorted run, so a stable sort merges the added
    ones in.  The stored arrays are never written.
    """
    vertices, dists, masks = entries
    stride = len(dirty)
    keep = ~dirty[masks]
    codes = np.concatenate([
        (vertices[keep] * num_vertices + dists[keep]) * stride + masks[keep],
        (add_vertices.astype(np.int64) * num_vertices + add_dists) * stride
        + add_masks,
    ])
    codes.sort(kind="stable")
    vertex, rest = np.divmod(codes, num_vertices * stride)
    dist, mask = np.divmod(rest, stride)
    return vertex, dist, mask


def repair_powcov(
    index: PowCovIndex, new_graph: EdgeLabeledGraph
) -> RepairStats:
    """Absorb ``new_graph``'s delta into a built PowCov index, in place.

    The repaired index is bit-identical to ``PowCovIndex(new_graph,
    landmarks, ...).build()``.  Directed and weighted indexes, indexes
    that were never built, and indexes whose single-landmark lattice
    exceeds ``_SOS_TABLE_CELLS`` fall back to a full rebuild.
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
            and _landmarks_per_lattice(
                new_graph.num_vertices, full_mask(new_graph.num_labels)
            ) >= 1
        )
        if not fine_grained:
            index.graph = new_graph
            index.build()
            stats.full_rebuild = True
        else:
            _repair_table(index, new_graph, delta, stats)
            index.graph = new_graph
        repair_span.count("landmarks_resweep", stats.landmarks_resweep)
        repair_span.count("rows_swept", stats.rows_swept)
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
    """Incremental repair of an undirected, unweighted, built index.

    Per chunk of landmarks: recover the old rows (Theorem 1), re-sweep
    the rows the delta may change with the build's BFS kernel, and
    re-derive the entries of the masks whose rows or one-removed subset
    rows changed (Theorem 2).
    """
    table = index.table
    assert table is not None
    num_vertices = new_graph.num_vertices
    universe = full_mask(new_graph.num_labels)
    stride = universe + 1
    op_masks = _op_masks(delta, universe)
    parts = [table.landmark_slice(i) for i in range(len(index.landmarks))]
    per_chunk = _landmarks_per_lattice(num_vertices, universe)
    for lo in range(0, len(parts), per_chunk):
        landmarks = index.landmarks[lo:lo + per_chunk]
        lattice = _stacked_subset_min(
            parts[lo:lo + per_chunk], landmarks, num_vertices, universe
        )
        rows = _rows_the_delta_may_change(
            lattice, op_masks, len(landmarks), stride
        )
        if not len(rows):
            continue
        stats.rows_swept += len(rows)
        swept = batched_constrained_bfs(
            new_graph,
            np.asarray(landmarks, dtype=np.int64)[rows // stride],
            masks=rows & (stride - 1),
        )
        swept[swept == UNREACHABLE] = BIG
        differs = (swept != lattice[rows]).any(axis=1)
        if not differs.any():
            continue
        changed = rows[differs]
        lattice[changed] = swept[differs]
        dirty, ids, vertex, dist = _rederive_entries(
            lattice, changed, landmarks, universe
        )
        stats.masks_dirty += len(dirty)
        flagged = np.zeros((len(landmarks), stride), dtype=bool)
        flagged.reshape(-1)[dirty] = True
        owner = ids // stride
        for j in np.unique(dirty // stride):
            start, stop = np.searchsorted(owner, [j, j + 1])
            parts[lo + j] = _splice_pairs(
                parts[lo + j],
                flagged[j],
                vertex[start:stop],
                dist[start:stop],
                ids[start:stop] & (stride - 1),
                num_vertices,
            )
            stats.landmarks_resweep += 1
    stats.landmarks_clean = len(parts) - stats.landmarks_resweep
    if stats.landmarks_resweep:
        # Publish new arrays; the old columns are never written.
        index.table = PowCovTable.from_landmarks(parts, num_vertices)


# ----------------------------------------------------------------------
# ChromLand repair
# ----------------------------------------------------------------------
def repair_chromland(
    index: ChromLandIndex, new_graph: EdgeLabeledGraph
) -> RepairStats:
    """Absorb ``new_graph``'s delta into a built ChromLand index.

    Re-runs the build's own sweeps (:meth:`ChromLandIndex.run_sweeps`)
    whose constraint mask meets the delta's touched labels, on the new
    graph, into copies of the tables; the index then points at the new
    tables, which are bit-identical to a fresh build.  The old arrays,
    possibly held by a reader or mapped from a store file, are never
    written.  An unbuilt index builds in full.
    """
    delta = _require_descendant(index.graph, new_graph)
    stats = RepairStats(kind="chromland", num_landmarks=index.num_landmarks)
    started = perf_counter()
    if not index._built:
        index.graph = new_graph
        index.build()
        stats.full_rebuild = True
    else:
        with span("dynamic.repair_chromland", ops=delta.num_ops) as repair_span:
            stats.sweeps_rerun, stats.sweeps_kept = index.run_sweeps(
                new_graph, delta.touched_label_mask()
            )
            repair_span.count("sweeps_rerun", stats.sweeps_rerun)
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
