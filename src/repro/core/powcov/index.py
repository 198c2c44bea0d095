"""The Powerset Cover (PowCov) index — Section 3 of the paper.

For every landmark-vertex pair ``(x, u)`` the index stores the set
``SP_xu`` of SP-minimal label sets with their constrained distances.  By
Theorem 1, the exact constrained distance ``d_C(x, u)`` for *any* ``C`` is
the minimum stored distance over entries whose label set is a subset of
``C`` (or ``∞`` when none is).  A query ``⟨s, t, C⟩`` is then answered with
the classic landmark triangle inequality over those exact reconstructed
distances.

The entries live in one :class:`~repro.core.powcov.table.PowCovTable`
(a second one holds the reversed-graph entries of a directed index),
whether the index was built in memory or opened from a store file.
Section 3.1's prefix-tree grouping of equal-distance label sets is
measured by the storage ablation benchmark, which builds its tries from
the table on demand.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ...graph.labeled_graph import EdgeLabeledGraph
from ...kernels import kernel_name
from ...obs.trace import span
from ...perf.parallel import run_tasks, worker_count
from ..types import INF, DistanceOracle, QueryAnswer
from .spminimal import LandmarkSPMinimal, brute_force_sp_minimal, traverse_powerset
from .table import PowCovTable
from .waves import traverse_powerset_waves

__all__ = [
    "PowCovIndex",
    "get_default_builder",
]

_BUILDERS = ("wave", "traverse", "brute")
_ESTIMATORS = ("upper", "median")

#: The production builder: every index built with ``builder=None`` (the
#: serve CLI, the eval runners, full delta rebuilds) runs it.
_default_builder = "wave"


def get_default_builder() -> str:
    """The builder ``PowCovIndex(builder=None)`` runs (read-only)."""
    return _default_builder


class PowCovIndex(DistanceOracle):
    """Powerset Cover landmark index.

    Parameters
    ----------
    landmarks:
        Landmark vertex ids (see :mod:`repro.landmarks` for selection
        strategies; Section 3.3 recommends GreedyMVC).
    builder:
        ``"wave"`` (the default for ``None``) — Algorithm 2 with
        Observations 1-3, one batched multi-source BFS per cardinality
        wave and ring-cached Theorem 2 on the resolved kernel (see
        :mod:`repro.core.powcov.waves`);
        ``"traverse"`` — the scalar reference, one BFS per mask;
        ``"brute"`` — Algorithm 1.
        All builders produce identical indexes.  The paper's Observation
        4 variant is the ``use_obs4=True`` flag of the scalar
        :func:`~repro.core.powcov.spminimal.traverse_powerset`.
    estimator:
        ``"upper"`` — the paper's estimate, ``min_x d_C(x,s) + d_C(x,t)``;
        ``"median"`` — the median of the per-landmark upper bounds
        (Potamias et al.), kept for the estimator ablation.

    Notes
    -----
    A directed index keeps a second table, built on the reversed graph,
    holding the vertex → landmark distances (the Section 2 remark).
    """

    name = "powcov"

    def __init__(
        self,
        graph: EdgeLabeledGraph,
        landmarks: Sequence[int],
        builder: str | None = None,
        estimator: str = "upper",
    ):
        super().__init__(graph)
        if builder is None:
            builder = _default_builder
        if builder not in _BUILDERS:
            raise ValueError(f"builder must be one of {_BUILDERS}, got {builder!r}")
        if estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
        self.landmarks = list(landmarks)
        if len(set(self.landmarks)) != len(self.landmarks):
            raise ValueError("landmarks must be distinct")
        for x in self.landmarks:
            if not 0 <= x < graph.num_vertices:
                raise ValueError(f"landmark {x} out of range")
        self.builder = builder
        self.estimator = estimator
        #: per-landmark build statistics (the entries live in ``table``);
        #: empty for an index opened from a store file.
        self.per_landmark: list[LandmarkSPMinimal] = []
        #: landmark → vertex entries, and for directed graphs the
        #: vertex → landmark entries of the reversed graph.
        self.table: PowCovTable | None = None
        self.reverse_table: PowCovTable | None = None
        #: landmark index of each landmark vertex (for distance-0 fixups).
        self._landmark_index_of = {x: i for i, x in enumerate(self.landmarks)}
        self._built = False

    @classmethod
    def from_tables(
        cls,
        graph: EdgeLabeledGraph,
        landmarks: Sequence[int],
        table: PowCovTable,
        reverse_table: PowCovTable | None = None,
        estimator: str = "upper",
    ) -> "PowCovIndex":
        """A built index over existing tables (e.g. a store file's columns)."""
        if graph.directed and reverse_table is None:
            raise ValueError("a directed PowCov index needs the reverse table")
        index = cls(graph, landmarks, estimator=estimator)
        index.table = table
        index.reverse_table = reverse_table if graph.directed else None
        index._built = True
        return index

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _build_task_extra(self) -> dict:
        """Build parameters every landmark task reads (subclass hook)."""
        return {"builder": self.builder}

    def _build_one(self, landmark: int, graph=None) -> LandmarkSPMinimal:
        graph = self.graph if graph is None else graph
        return _build_landmark(graph, landmark, self._build_task_extra())

    def build(self, parallel: int | None = None) -> "PowCovIndex":
        """Compute SP-minimal sets for every landmark and lay out the table.

        Parameters
        ----------
        parallel:
            Worker threads: ``None`` or ``1`` (default) builds serially,
            ``0`` uses every core.  Per-landmark sweeps are independent
            and results are reassembled in landmark order, so the built
            index is bit-for-bit identical for every worker count.
        """
        with span(
            "powcov.build",
            builder=self.builder,
            workers=worker_count(parallel),
            kernel=kernel_name(),
        ) as build_span:
            build_span.count("landmarks", len(self.landmarks))
            items: list[tuple[int, int]] = [(x, 0) for x in self.landmarks]
            graphs: list[EdgeLabeledGraph] = [self.graph]
            if self.graph.directed:
                graphs.append(self.graph.reversed())
                items.extend((x, 1) for x in self.landmarks)
            results = run_tasks(
                _landmark_chunk_task,
                items,
                graphs=tuple(graphs),
                extra=self._build_task_extra(),
                parallel=parallel,
            )
            k = len(self.landmarks)
            n = self.graph.num_vertices
            # Each landmark's block is (vertex, dist, mask)-sorted, so
            # concatenating them in landmark order is the key-sorted table.
            self.table = PowCovTable.from_landmarks(
                [r.arrays for r in results[:k]], n
            )
            self.per_landmark = [r.stats_only() for r in results[:k]]
            if self.graph.directed:
                self.reverse_table = PowCovTable.from_landmarks(
                    [r.arrays for r in results[k:]], n
                )
            self._built = True
            build_span.count("entries", self.index_size_entries())
            build_span.count("sssp", sum(r.num_sssp for r in results))
        return self

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("call build() before querying the index")

    def tables(self) -> list[PowCovTable]:
        """The forward table, then (directed graphs) the reverse table."""
        self._require_built()
        assert self.table is not None
        if self.reverse_table is None:
            return [self.table]
        return [self.table, self.reverse_table]

    # ------------------------------------------------------------------
    # Landmark-distance reconstruction (Theorem 1)
    # ------------------------------------------------------------------
    def landmark_distance(
        self,
        landmark_index: int,
        vertex: int,
        label_mask: int,
        direction: str = "from-landmark",
    ) -> float:
        """Exact constrained landmark distance (Theorem 1 reconstruction).

        ``direction`` matters for directed graphs only: ``"from-landmark"``
        is ``d_C(x → u)``, ``"to-landmark"`` is ``d_C(u → x)`` (served from
        the reversed-graph table).  Undirected graphs ignore it.
        """
        if vertex == self.landmarks[landmark_index]:
            self._require_built()
            return 0.0
        return self._table_for(direction).lookup_one(
            landmark_index, vertex, label_mask
        )

    def landmark_rows(
        self,
        vertices: np.ndarray,
        label_mask: int,
        direction: str = "from-landmark",
    ) -> np.ndarray:
        """:meth:`landmark_distance` for every vertex × every landmark.

        Returns a ``(len(vertices), k)`` float64 matrix, ``inf`` where no
        stored label set is a subset of ``label_mask``.
        """
        rows = self._table_for(direction).lookup_many(vertices, label_mask)
        for row, u in enumerate(np.asarray(vertices).tolist()):
            own = self._landmark_index_of.get(u)
            if own is not None:
                rows[row, own] = 0.0
        return rows

    def _table_for(self, direction: str) -> PowCovTable:
        self._require_built()
        table = self.table
        if direction == "to-landmark" and self.graph.directed:
            table = self.reverse_table
        assert table is not None
        return table

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def _query(self, source: int, target: int, label_mask: int) -> float:
        return self._query_answer(source, target, label_mask).estimate

    def _query_answer(self, source: int, target: int, label_mask: int) -> QueryAnswer:
        """Triangle-inequality estimate over all landmarks.

        Upper bound: ``min_x d_C(s,x) + d_C(x,t)`` (both legs collapse to
        the same table on undirected graphs).  Lower bound (undirected):
        ``max_x |d_C(x,s) - d_C(x,t)|`` over landmarks seeing both
        endpoints; for directed graphs the one-sided variants
        ``d_C(x,t) - d_C(x,s)`` and ``d_C(s,x) - d_C(t,x)`` are used.
        The headline estimate follows ``self.estimator``.
        """
        self._require_built()
        if source == target:
            return QueryAnswer(estimate=0.0, lower=0.0, upper=0.0)
        if label_mask == 0:
            return QueryAnswer(estimate=INF, lower=INF, upper=INF)
        endpoints = np.asarray([source, target], dtype=np.int64)
        # from_x[0] = d_C(x, s), from_x[1] = d_C(x, t), for every landmark.
        from_x = self.landmark_rows(endpoints, label_mask)
        if not self.graph.directed:
            sums = from_x[0] + from_x[1]
            finite = np.isfinite(sums)
            gaps = np.abs(from_x[0][finite] - from_x[1][finite])
            return self._answer(sums[finite], float(gaps.max()) if len(gaps) else 0.0)
        to_x = self.landmark_rows(endpoints, label_mask, "to-landmark")
        sums = to_x[0] + from_x[1]
        # One-sided lower bounds: d(s,t) >= d(x,t) - d(x,s) and
        # d(s,t) >= d(s,x) - d(t,x), over landmarks seeing both sides.
        lower = 0.0
        for near, far in ((from_x[1], from_x[0]), (to_x[0], to_x[1])):
            both = np.isfinite(near) & np.isfinite(far)
            if both.any():
                lower = max(lower, float((near[both] - far[both]).max()))
        return self._answer(sums[np.isfinite(sums)], lower)

    def _answer(self, finite_sums: np.ndarray, lower: float) -> QueryAnswer:
        """The estimate over the per-landmark upper bounds that exist."""
        if not len(finite_sums):
            return QueryAnswer(estimate=INF, lower=lower, upper=INF)
        upper = float(finite_sums.min())
        if self.estimator == "median":
            estimate = float(np.sort(finite_sums)[len(finite_sums) // 2])
        else:
            estimate = upper
        return QueryAnswer(estimate=estimate, lower=lower, upper=upper)

    # ------------------------------------------------------------------
    # Size accounting (Table 2)
    # ------------------------------------------------------------------
    def index_size_entries(self) -> int:
        """Total stored ``(label set, distance)`` entries across all pairs."""
        return sum(len(table) for table in self.tables())

    def reachable_pairs(self) -> int:
        """Landmark-vertex pairs with at least one stored entry."""
        return sum(len(table.pair_counts()) for table in self.tables())

    def average_entries_per_pair(self) -> float:
        """Table 2's measure: avg stored distances per reachable pair."""
        pairs = self.reachable_pairs()
        return self.index_size_entries() / pairs if pairs else 0.0

    def max_entries_per_pair(self) -> int:
        """The paper's ``H`` (bounded by Proposition 1)."""
        counts = self.tables()[0].pair_counts()
        return int(counts.max()) if len(counts) else 0

    def describe(self) -> str:
        return (
            f"{self.name}(k={len(self.landmarks)}, builder={self.builder}) "
            f"on {self.graph!r}"
        )


# ----------------------------------------------------------------------
# Build task functions.  Serial and parallel builds share this single
# code path, which is what makes their outputs bit-for-bit identical.
# ----------------------------------------------------------------------
def _build_landmark(
    graph: EdgeLabeledGraph, landmark: int, extra: dict
) -> LandmarkSPMinimal:
    """One landmark's SP-minimal enumeration, parameterized by ``extra``."""
    with span("powcov.landmark", landmark=landmark) as landmark_span:
        result = _build_landmark_inner(graph, landmark, extra)
        landmark_span.count("entries", result.total_entries)
        landmark_span.count("sssp", result.num_sssp)
        landmark_span.count("full_tests", result.num_full_tests)
        landmark_span.count("auto_minimal", result.num_auto_minimal)
    return result


def _build_landmark_inner(
    graph: EdgeLabeledGraph, landmark: int, extra: dict
) -> LandmarkSPMinimal:
    weights = extra.get("weights")
    if weights is not None:
        from .weighted import weighted_sp_minimal  # local: avoids cycle

        return weighted_sp_minimal(graph, landmark, weights)
    builder = extra["builder"]
    if builder == "brute":
        return brute_force_sp_minimal(graph, landmark)
    if builder == "traverse":
        return traverse_powerset(graph, landmark, use_obs4=False)
    return traverse_powerset_waves(graph, landmark)


def _landmark_chunk_task(
    graphs: tuple[EdgeLabeledGraph, ...], items, extra: dict
) -> list[LandmarkSPMinimal]:
    """Chunk task: each item is ``(landmark, graph_index)``.

    ``graph_index`` selects the forward (0) or reversed (1) graph — the
    directed build fans both table families out over the same threads.
    """
    return [
        _build_landmark(graphs[graph_index], landmark, extra)
        for landmark, graph_index in items
    ]
