"""The Powerset Cover (PowCov) index — Section 3 of the paper.

For every landmark-vertex pair ``(x, u)`` the index stores the set
``SP_xu`` of SP-minimal label sets with their constrained distances.  By
Theorem 1, the exact constrained distance ``d_C(x, u)`` for *any* ``C`` is
the minimum stored distance over entries whose label set is a subset of
``C`` (or ``∞`` when none is).  A query ``⟨s, t, C⟩`` is then answered with
the classic landmark triangle inequality over those exact reconstructed
distances.

Three physical layouts are provided (Section 3.1 suggests grouping equal
-distance label sets into a prefix tree):

* ``storage="flat"`` (default) — per pair, a distance-sorted list of
  ``(d, mask)`` tuples; the subset probe is a linear scan with
  ``mask & C == mask`` that exits at the first (= minimum-distance) hit.
  The early exit makes this the fastest layout at realistic entry counts
  (see the storage ablation benchmark).
* ``storage="packed"`` — all entries of all landmarks in three parallel
  numpy arrays sorted by ``(vertex, distance)`` with a CSR offset per
  vertex; a query resolves *every* landmark's constrained distance to an
  endpoint in a handful of vectorized operations.  Wins only when ``k``
  times the per-pair entry count is large.
* ``storage="trie"`` — per pair, distance-ascending groups each holding a
  :class:`~repro.core.trie.LabelSetTrie`; the probe asks each group
  ``contains_subset_of(C)``.

All layouts answer identically; the storage ablation benchmark measures
their space/time trade-offs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ...graph.labeled_graph import EdgeLabeledGraph
from ...kernels import kernel_name
from ...obs.trace import span
from ...perf.parallel import ParallelConfig, resolve_parallel, run_tasks
from ..trie import LabelSetTrie
from ..types import INF, DistanceOracle, QueryAnswer
from .spminimal import LandmarkSPMinimal, brute_force_sp_minimal, traverse_powerset
from .waves import traverse_powerset_waves

__all__ = [
    "PowCovIndex",
    "get_default_builder",
]

_STORAGES = ("packed", "flat", "trie")
_BUILDERS = ("wave", "traverse", "brute")
_ESTIMATORS = ("upper", "median")

#: The production builder: every index built with ``builder=None`` (the
#: serve CLI, the eval runners, delta rebuilds and re-sweeps) runs it.
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
        4 variants are the ``use_obs4=True`` flags of
        :func:`~repro.core.powcov.spminimal.traverse_powerset` and
        :func:`~repro.core.powcov.waves.traverse_powerset_waves`.
    storage:
        ``"flat"`` or ``"trie"`` (see module docstring).
    estimator:
        ``"upper"`` — the paper's estimate, ``min_x d_C(x,s) + d_C(x,t)``;
        ``"median"`` — the median of the per-landmark upper bounds
        (Potamias et al.), kept for the estimator ablation.

    Notes
    -----
    **Directed graphs support** ``storage="flat"`` **only.**  A directed
    index keeps two tables per landmark (forward and reversed-graph
    entries) and the query path resolves the reverse leg through the flat
    per-vertex lists; the ``"packed"`` and ``"trie"`` layouts only
    materialize the forward table, so requesting them for a directed graph
    raises ``ValueError`` at construction time.
    """

    name = "powcov"

    def __init__(
        self,
        graph: EdgeLabeledGraph,
        landmarks: Sequence[int],
        builder: str | None = None,
        storage: str = "flat",
        estimator: str = "upper",
    ):
        super().__init__(graph)
        if builder is None:
            builder = _default_builder
        if builder not in _BUILDERS:
            raise ValueError(f"builder must be one of {_BUILDERS}, got {builder!r}")
        if storage not in _STORAGES:
            raise ValueError(f"storage must be one of {_STORAGES}, got {storage!r}")
        if estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
        self.landmarks = list(landmarks)
        if len(set(self.landmarks)) != len(self.landmarks):
            raise ValueError("landmarks must be distinct")
        for x in self.landmarks:
            if not 0 <= x < graph.num_vertices:
                raise ValueError(f"landmark {x} out of range")
        self.builder = builder
        self.storage = storage
        self.estimator = estimator
        #: per-landmark build output (kept for stats/inspection).
        self.per_landmark: list[LandmarkSPMinimal] = []
        # flat: list over landmarks of {u: [(d, mask), ...]}
        self._flat: list[dict[int, list[tuple[int, int]]]] = []
        # trie: list over landmarks of {u: [(d, LabelSetTrie), ...]}
        self._tries: list[dict[int, list[tuple[int, LabelSetTrie]]]] = []
        # packed: parallel arrays sorted by (vertex, distance) + offsets.
        self._packed_offsets: np.ndarray | None = None
        self._packed_dist: np.ndarray | None = None
        self._packed_mask: np.ndarray | None = None
        self._packed_landmark: np.ndarray | None = None
        #: landmark index of each landmark vertex (for distance-0 fixups).
        self._landmark_index_of = {x: i for i, x in enumerate(self.landmarks)}
        # Directed graphs additionally store vertex->landmark distances
        # (computed on the reversed graph) — the Section 2 remark.
        if graph.directed and storage != "flat":
            raise ValueError("directed PowCov supports storage='flat' only")
        self.per_landmark_reverse: list[LandmarkSPMinimal] = []
        self._flat_reverse: list[dict[int, list[tuple[int, int]]]] = []
        self._built = False

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _build_task_extra(self) -> dict:
        """Picklable build parameters shipped to workers (subclass hook).

        The kernel is resolved to its *concrete* backend name here, in the
        parent: worker processes do not inherit ``set_default_kernel``
        state, and shipping the resolved name keeps every worker (and the
        serial path) on the same backend deterministically.
        """
        return {"builder": self.builder, "kernel": kernel_name()}

    def _build_one(self, landmark: int, graph=None) -> LandmarkSPMinimal:
        graph = self.graph if graph is None else graph
        return _build_landmark(graph, landmark, self._build_task_extra())

    def build(self, parallel: "ParallelConfig | int | None" = None) -> "PowCovIndex":
        """Compute SP-minimal sets for every landmark and lay out storage.

        Parameters
        ----------
        parallel:
            ``None`` (default) uses the process-wide default set via
            :func:`repro.perf.parallel.set_default_parallel` (serial unless
            an experiment driver opted in); an ``int`` is shorthand for
            ``ParallelConfig(num_workers=n)``.  Per-landmark sweeps are
            independent and results are reassembled in landmark order, so
            the built index is bit-for-bit identical for every
            configuration.
        """
        config = resolve_parallel(parallel)
        with span(
            "powcov.build",
            builder=self.builder,
            storage=self.storage,
            backend=config.backend,
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
                config=config,
            )
            k = len(self.landmarks)
            self.per_landmark = results[:k]
            self._flat = [result.entries for result in self.per_landmark]
            if self.graph.directed:
                self.per_landmark_reverse = results[k:]
                self._flat_reverse = [r.entries for r in self.per_landmark_reverse]
            if self.storage == "packed":
                self._build_packed()
            if self.storage == "trie":
                self._tries = []
                for entries in self._flat:
                    per_vertex: dict[int, list[tuple[int, LabelSetTrie]]] = {}
                    for u, pairs in entries.items():
                        groups: list[tuple[int, LabelSetTrie]] = []
                        for dist, mask in pairs:  # pairs are distance-sorted
                            if not groups or groups[-1][0] != dist:
                                groups.append((dist, LabelSetTrie()))
                            groups[-1][1].insert(mask)
                        per_vertex[u] = groups
                    self._tries.append(per_vertex)
            self._built = True
            build_span.count("entries", self.index_size_entries())
            build_span.count("sssp", sum(r.num_sssp for r in results))
        return self

    def _build_packed(self) -> None:
        """Concatenate every pair's entries into (vertex, distance)-sorted arrays."""
        total = sum(result.total_entries for result in self.per_landmark)
        vertex = np.empty(total, dtype=np.int64)
        dist = np.empty(total, dtype=np.int32)
        mask = np.empty(total, dtype=np.int64)
        landmark = np.empty(total, dtype=np.int32)
        pos = 0
        for i, entries in enumerate(self._flat):
            for u, pairs in entries.items():
                for d, m in pairs:
                    vertex[pos] = u
                    dist[pos] = d
                    mask[pos] = m
                    landmark[pos] = i
                    pos += 1
        order = np.lexsort((dist, vertex))
        vertex = vertex[order]
        self._packed_dist = dist[order]
        self._packed_mask = mask[order]
        self._packed_landmark = landmark[order]
        offsets = np.zeros(self.graph.num_vertices + 1, dtype=np.int64)
        np.add.at(offsets, vertex + 1, 1)
        np.cumsum(offsets, out=offsets)
        self._packed_offsets = offsets

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("call build() before querying the index")

    # ------------------------------------------------------------------
    # Landmark-distance reconstruction (Theorem 1)
    # ------------------------------------------------------------------
    def _packed_lookup(self, vertex: int, label_mask: int) -> np.ndarray:
        """``d_C(x, vertex)`` for every landmark at once (float64, inf=none).

        One slice of the packed arrays + a subset filter; entries within a
        vertex are distance-sorted, so the first match per landmark (found
        by ``np.unique``'s first-occurrence semantics) is the minimum.
        """
        out = np.full(len(self.landmarks), INF, dtype=np.float64)
        lo = self._packed_offsets[vertex]
        hi = self._packed_offsets[vertex + 1]
        if hi > lo:
            masks = self._packed_mask[lo:hi]
            ok = (masks & label_mask) == masks
            if ok.any():
                landmarks = self._packed_landmark[lo:hi][ok]
                dists = self._packed_dist[lo:hi][ok]
                first_landmarks, first_pos = np.unique(landmarks, return_index=True)
                out[first_landmarks] = dists[first_pos]
        own = self._landmark_index_of.get(vertex)
        if own is not None:
            out[own] = 0.0
        return out

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
        the reversed-graph tables).  Undirected graphs ignore it.
        """
        self._require_built()
        if vertex == self.landmarks[landmark_index]:
            return 0.0
        if direction == "to-landmark" and self.graph.directed:
            pairs = self._flat_reverse[landmark_index].get(vertex)
            return self._first_subset_distance(pairs, label_mask)
        if self.storage == "packed":
            return float(self._packed_lookup(vertex, label_mask)[landmark_index])
        if self.storage == "trie":
            groups = self._tries[landmark_index].get(vertex)
            if groups is None:
                return INF
            for dist, trie in groups:
                if trie.contains_subset_of(label_mask):
                    return float(dist)
            return INF
        return self._first_subset_distance(
            self._flat[landmark_index].get(vertex), label_mask
        )

    @staticmethod
    def _first_subset_distance(
        pairs: list[tuple[int, int]] | None, label_mask: int
    ) -> float:
        if pairs is None:
            return INF
        for dist, mask in pairs:
            if mask & label_mask == mask:
                return float(dist)
        return INF

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def query(self, source: int, target: int, label_mask: int) -> float:
        return self.query_answer(source, target, label_mask).estimate

    def query_answer(self, source: int, target: int, label_mask: int) -> QueryAnswer:
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
        if self.graph.directed:
            return self._directed_query_answer(source, target, label_mask)
        if self.storage == "packed":
            return self._packed_query_answer(source, target, label_mask)
        upper = INF
        lower = 0.0
        sums: list[float] = []
        for i in range(len(self.landmarks)):
            ds = self.landmark_distance(i, source, label_mask)
            if ds == INF:
                continue
            dt = self.landmark_distance(i, target, label_mask)
            if dt == INF:
                continue
            total = ds + dt
            sums.append(total)
            if total < upper:
                upper = total
            gap = abs(ds - dt)
            if gap > lower:
                lower = gap
        if not sums:
            return QueryAnswer(estimate=INF, lower=0.0, upper=INF)
        if self.estimator == "median":
            sums.sort()
            estimate = sums[len(sums) // 2]
        else:
            estimate = upper
        return QueryAnswer(estimate=estimate, lower=lower, upper=upper)

    def _directed_query_answer(
        self, source: int, target: int, label_mask: int
    ) -> QueryAnswer:
        """Directed triangle bounds: source→landmark then landmark→target."""
        upper = INF
        lower = 0.0
        sums: list[float] = []
        for i in range(len(self.landmarks)):
            source_to_x = self.landmark_distance(
                i, source, label_mask, direction="to-landmark"
            )
            x_to_target = self.landmark_distance(
                i, target, label_mask, direction="from-landmark"
            )
            if source_to_x != INF and x_to_target != INF:
                total = source_to_x + x_to_target
                sums.append(total)
                upper = min(upper, total)
            # One-sided lower bounds: d(s,t) >= d(x,t) - d(x,s) and
            # d(s,t) >= d(s,x) - d(t,x).
            x_to_source = self.landmark_distance(
                i, source, label_mask, direction="from-landmark"
            )
            if x_to_source != INF and x_to_target != INF:
                lower = max(lower, x_to_target - x_to_source)
            target_to_x = self.landmark_distance(
                i, target, label_mask, direction="to-landmark"
            )
            if source_to_x != INF and target_to_x != INF:
                lower = max(lower, source_to_x - target_to_x)
        if not sums:
            return QueryAnswer(estimate=INF, lower=max(lower, 0.0), upper=INF)
        if self.estimator == "median":
            sums.sort()
            estimate = sums[len(sums) // 2]
        else:
            estimate = upper
        return QueryAnswer(estimate=estimate, lower=max(lower, 0.0), upper=upper)

    def _packed_query_answer(
        self, source: int, target: int, label_mask: int
    ) -> QueryAnswer:
        """Vectorized triangle bounds over all landmarks (packed layout)."""
        to_source = self._packed_lookup(source, label_mask)
        to_target = self._packed_lookup(target, label_mask)
        sums = to_source + to_target
        finite = np.isfinite(sums)
        if not finite.any():
            return QueryAnswer(estimate=INF, lower=0.0, upper=INF)
        finite_sums = sums[finite]
        upper = float(finite_sums.min())
        lower = float(np.abs(to_source[finite] - to_target[finite]).max())
        if self.estimator == "median":
            finite_sums.sort()
            estimate = float(finite_sums[len(finite_sums) // 2])
        else:
            estimate = upper
        return QueryAnswer(estimate=estimate, lower=lower, upper=upper)

    # ------------------------------------------------------------------
    # Size accounting (Table 2)
    # ------------------------------------------------------------------
    def index_size_entries(self) -> int:
        """Total stored ``(label set, distance)`` entries across all pairs."""
        self._require_built()
        total = sum(result.total_entries for result in self.per_landmark)
        total += sum(result.total_entries for result in self.per_landmark_reverse)
        return total

    def reachable_pairs(self) -> int:
        """Landmark-vertex pairs with at least one stored entry."""
        self._require_built()
        pairs = sum(len(result.entries) for result in self.per_landmark)
        pairs += sum(len(result.entries) for result in self.per_landmark_reverse)
        return pairs

    def average_entries_per_pair(self) -> float:
        """Table 2's measure: avg stored distances per reachable pair."""
        pairs = self.reachable_pairs()
        return self.index_size_entries() / pairs if pairs else 0.0

    def max_entries_per_pair(self) -> int:
        """The paper's ``H`` (bounded by Proposition 1)."""
        self._require_built()
        return max(
            (result.max_entries_per_vertex() for result in self.per_landmark),
            default=0,
        )

    def describe(self) -> str:
        return (
            f"{self.name}(k={len(self.landmarks)}, builder={self.builder}, "
            f"storage={self.storage}) on {self.graph!r}"
        )


# ----------------------------------------------------------------------
# Build task functions.  Module-level so the process backend can ship them
# to workers by reference; serial and parallel builds share this single
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
    kernel = extra.get("kernel")
    if builder == "brute":
        return brute_force_sp_minimal(graph, landmark)
    if builder == "traverse":
        return traverse_powerset(graph, landmark, use_obs4=False)
    return traverse_powerset_waves(graph, landmark, use_obs4=False, kernel=kernel)


def _landmark_chunk_task(
    graphs: tuple[EdgeLabeledGraph, ...], items, extra: dict
) -> list[LandmarkSPMinimal]:
    """Chunk task: each item is ``(landmark, graph_index)``.

    ``graph_index`` selects the forward (0) or reversed (1) graph — the
    directed build fans both table families out over the same pool.
    """
    return [
        _build_landmark(graphs[graph_index], landmark, extra)
        for landmark, graph_index in items
    ]
