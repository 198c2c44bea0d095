"""Zero-copy PowCov serving directly off the flat sorted store arrays.

``load_powcov`` (the ``.npz`` path) regroups the persisted parallel arrays
into per-landmark Python dicts before the first query can run — the cost
that dominates cold start.  :class:`MappedPowCovIndex` skips that step
entirely: the store file keeps the entries sorted by the combined key
``landmark_index * n + vertex`` (distance-ascending within a key, ties by
mask, exactly the flat layout's scan order), so

* a scalar :meth:`~MappedPowCovIndex.landmark_distance` is two
  ``np.searchsorted`` probes plus a first-subset scan of one short slice,
* the batch executor resolves whole endpoint sets with one vectorized
  slice-expansion per mask group,

and neither ever materializes per-pair Python objects.  When the arrays
are ``np.memmap`` sections, only the pages a query actually touches are
faulted in, and N worker processes mapping the same file share one
physical copy through the page cache.

A store file describes one graph version.  Repairing a delta therefore
rebuilds the index in memory (:meth:`MappedPowCovIndex.build`), after
which it serves and repairs like any in-memory PowCov index.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.powcov import PowCovIndex
from ..core.types import INF
from ..engine.executors import OracleExecutor, PowCovExecutor
from ..graph.labeled_graph import EdgeLabeledGraph
from ..perf.parallel import ParallelConfig

__all__ = ["MappedTable", "MappedPowCovIndex", "MappedPowCovExecutor"]


class MappedTable:
    """One direction's entries as flat sorted parallel arrays.

    ``key`` is ``landmark_index * num_vertices + vertex`` (int64, sorted
    ascending); ``dist`` and ``mask`` are parallel.  Within one key the
    entries are sorted by ``(distance, mask)``, matching the flat
    storage's per-pair list order, so "first subset hit" is the Theorem 1
    minimum in both layouts.
    """

    __slots__ = ("key", "dist", "mask", "num_landmarks", "num_vertices")

    def __init__(
        self,
        key: np.ndarray,
        dist: np.ndarray,
        mask: np.ndarray,
        num_landmarks: int,
        num_vertices: int,
    ) -> None:
        if not (len(key) == len(dist) == len(mask)):
            raise ValueError("key/dist/mask must be parallel arrays")
        self.key = key
        self.dist = dist
        self.mask = mask
        self.num_landmarks = num_landmarks
        self.num_vertices = num_vertices

    def __len__(self) -> int:
        return len(self.key)

    def lookup_one(self, landmark_index: int, vertex: int, label_mask: int) -> float:
        """Exact ``d_C(x, u)``: searchsorted slice + first-subset scan."""
        # Deliberate domain mix: the probe key *packs* (landmark, vertex)
        # into one int64, mirroring how the table's key column was built.
        key = landmark_index * self.num_vertices + vertex  # noqa: REPRO010
        lo = int(np.searchsorted(self.key, key, side="left"))
        hi = int(np.searchsorted(self.key, key, side="right"))
        masks = self.mask[lo:hi]
        for offset in range(hi - lo):
            mask = int(masks[offset])
            if mask & label_mask == mask:
                return float(self.dist[lo + offset])
        return INF

    def lookup_many(self, vertices: np.ndarray, label_mask: int) -> np.ndarray:
        """``d_C(x, u)`` for every landmark × every vertex in one sweep.

        Returns ``(len(vertices), k)`` float64 with ``inf`` where no stored
        label set is a subset of ``label_mask`` — the vectorized
        counterpart of :meth:`lookup_one`, same first-hit semantics via
        ``np.unique``'s first-occurrence indexing.
        """
        k = self.num_landmarks
        out = np.full((len(vertices), k), INF, dtype=np.float64)
        if len(vertices) == 0 or len(self.key) == 0:
            return out
        keys = (
            np.asarray(vertices, dtype=np.int64)[:, None]
            + np.arange(k, dtype=np.int64)[None, :] * self.num_vertices
        ).ravel()
        lo = np.searchsorted(self.key, keys, side="left")
        hi = np.searchsorted(self.key, keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return out
        # Flat entry indices of every key's slice, concatenated.
        starts = np.repeat(lo, counts)
        within = np.arange(total, dtype=np.int64)
        within -= np.repeat(np.cumsum(counts) - counts, counts)
        idx = starts + within
        grid = np.repeat(np.arange(len(keys), dtype=np.int64), counts)
        masks = np.asarray(self.mask)[idx]
        ok = (masks & label_mask) == masks
        if not ok.any():
            return out
        grid = grid[ok]
        dists = np.asarray(self.dist)[idx][ok]
        first_grid, first_pos = np.unique(grid, return_index=True)
        out[first_grid // k, first_grid % k] = dists[first_pos]
        return out

    def pair_counts(self) -> np.ndarray:
        """Entries per distinct ``(landmark, vertex)`` pair (run lengths)."""
        if len(self.key) == 0:
            return np.empty(0, dtype=np.int64)
        boundaries = np.nonzero(np.diff(np.asarray(self.key)))[0]
        edges = np.empty(len(boundaries) + 2, dtype=np.int64)
        edges[0] = 0
        edges[1:-1] = boundaries + 1
        edges[-1] = len(self.key)
        return np.diff(edges)


class MappedPowCovIndex(PowCovIndex):
    """A PowCov index served straight from flat sorted (mapped) arrays.

    Query answers are bit-identical to the flat in-memory layout (asserted
    by the persistence round-trip tests); only the physical lookup differs.
    While mapped, ``per_landmark`` is never materialized, so the index
    cannot be re-saved or repaired in place; :meth:`build` replaces the
    mapped tables with an in-memory flat build.
    """

    def __init__(
        self,
        graph: EdgeLabeledGraph,
        landmarks: Sequence[int],
        forward: MappedTable,
        reverse: MappedTable | None = None,
        estimator: str = "upper",
        stored_fingerprint: int | None = None,
    ) -> None:
        super().__init__(graph, landmarks, storage="flat", estimator=estimator)
        if graph.directed and reverse is None:
            raise ValueError("directed mapped PowCov needs the reverse table")
        self.storage = "mapped"
        self._forward: MappedTable | None = forward
        self._reverse = reverse if graph.directed else None
        #: fingerprint recorded in the store file (session open re-checks it).
        self.stored_fingerprint = stored_fingerprint
        self._built = True

    @property
    def is_mapped(self) -> bool:
        """Whether lookups still read the store arrays (then ``save_index``
        refuses the index)."""
        return self._forward is not None

    def build(self, parallel: "ParallelConfig | int | None" = None) -> "MappedPowCovIndex":
        """Rebuild in memory on ``self.graph`` and stop serving the file.

        The delta repair path calls this: the production builder fills
        the flat tables, and every later lookup and repair uses them.
        """
        self._forward = self._reverse = None
        self.storage = "flat"
        super().build(parallel)
        return self

    # ------------------------------------------------------------------
    # Lookup: searchsorted slicing instead of dict regrouping
    # ------------------------------------------------------------------
    def landmark_distance(
        self,
        landmark_index: int,
        vertex: int,
        label_mask: int,
        direction: str = "from-landmark",
    ) -> float:
        if self._forward is None:
            return super().landmark_distance(
                landmark_index, vertex, label_mask, direction
            )
        self._require_built()
        if vertex == self.landmarks[landmark_index]:
            return 0.0
        if direction == "to-landmark" and self.graph.directed:
            assert self._reverse is not None
            return self._reverse.lookup_one(landmark_index, vertex, label_mask)
        return self._forward.lookup_one(landmark_index, vertex, label_mask)

    def make_batch_executor(self) -> PowCovExecutor:
        if self._forward is None:
            return PowCovExecutor(self)
        return MappedPowCovExecutor(self)

    # ------------------------------------------------------------------
    # Size accounting, from the arrays (Table 2)
    # ------------------------------------------------------------------
    def index_size_entries(self) -> int:
        if self._forward is None:
            return super().index_size_entries()
        total = len(self._forward)
        if self._reverse is not None:
            total += len(self._reverse)
        return total

    def reachable_pairs(self) -> int:
        if self._forward is None:
            return super().reachable_pairs()
        pairs = len(self._forward.pair_counts())
        if self._reverse is not None:
            pairs += len(self._reverse.pair_counts())
        return pairs

    def max_entries_per_pair(self) -> int:
        if self._forward is None:
            return super().max_entries_per_pair()
        counts = self._forward.pair_counts()
        return int(counts.max()) if len(counts) else 0


class MappedPowCovExecutor(PowCovExecutor):
    """The PowCov batch executor over mapped tables.

    Reuses the parent's mask plans, row caches and triangle-bound group
    execution wholesale; only the table views differ — searchsorted key
    slicing instead of the per-vertex CSR the in-memory executor packs.
    """

    def __init__(self, oracle: MappedPowCovIndex) -> None:
        # Bypass PowCovExecutor.__init__: there are no flat dicts to pack.
        OracleExecutor.__init__(self, oracle)
        oracle._require_built()  # noqa: SLF001 - engine-facing friend class
        assert oracle._forward is not None  # noqa: SLF001
        self._forward = oracle._forward  # noqa: SLF001
        self._reverse = oracle._reverse  # noqa: SLF001
        self._landmark_index_of = dict(oracle._landmark_index_of)  # noqa: SLF001
