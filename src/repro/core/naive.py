"""The naive powerset landmark index (the straw-man of the introduction).

For each landmark ``x`` and *every* label set ``C ⊆ L`` the index stores the
full constrained distance vector ``d_C(x, ·)`` — i.e. one distance per
``(landmark, vertex, label set)`` triple, exponential in ``|L|``.  Queries
are answered in ``O(k)`` by direct lookup, exactly like the classic landmark
method on the graph instance for ``C``.

The index exists to quantify what PowCov saves (Table 2) and as a strong
correctness reference: its stored distances are exact, so its query answers
equal PowCov's on every query (both apply the same triangle inequality over
exact landmark distances).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import full_mask
from ..graph.traversal import UNREACHABLE, constrained_bfs
from .types import INF, DistanceOracle, QueryAnswer

__all__ = ["NaivePowersetIndex"]


class NaivePowersetIndex(DistanceOracle):
    """Landmark index materializing all ``2^|L| - 1`` label-set instances.

    Parameters
    ----------
    landmarks:
        The landmark vertex ids ``X``.
    """

    name = "naive-powerset"

    def __init__(self, graph: EdgeLabeledGraph, landmarks: Sequence[int]):
        super().__init__(graph)
        if graph.num_labels > 16:
            raise ValueError(
                "naive powerset index is intentionally exponential; refusing "
                f"to build 2^{graph.num_labels} instances (limit: 16 labels)"
            )
        self.landmarks = list(landmarks)
        if len(set(self.landmarks)) != len(self.landmarks):
            raise ValueError("landmarks must be distinct")
        # _distances[i][C] is the d_C(x_i, .) vector, int32 with -1 sentinel.
        self._distances: list[dict[int, np.ndarray]] = []
        self._built = False

    def build(self) -> "NaivePowersetIndex":
        """Run ``(2^|L| - 1) * k`` constrained BFS traversals."""
        num_masks = full_mask(self.graph.num_labels)
        self._distances = []
        for landmark in self.landmarks:
            per_mask: dict[int, np.ndarray] = {}
            for mask in range(1, num_masks + 1):
                per_mask[mask] = constrained_bfs(self.graph, landmark, mask)
            self._distances.append(per_mask)
        self._built = True
        return self

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("call build() before querying the index")

    def _query(self, source: int, target: int, label_mask: int) -> float:
        return self._query_answer(source, target, label_mask).estimate

    def _query_answer(self, source: int, target: int, label_mask: int) -> QueryAnswer:
        """Triangle-inequality bounds over the stored exact distances."""
        self._require_built()
        if source == target:
            return QueryAnswer(estimate=0.0, lower=0.0, upper=0.0)
        if label_mask == 0:
            return QueryAnswer(estimate=INF, lower=INF, upper=INF)
        upper = INF
        lower = 0.0
        for per_mask in self._distances:
            vector = per_mask[label_mask]
            ds, dt = int(vector[source]), int(vector[target])
            if ds == UNREACHABLE or dt == UNREACHABLE:
                continue
            upper = min(upper, float(ds + dt))
            lower = max(lower, float(abs(ds - dt)))
        return QueryAnswer(estimate=upper, lower=lower, upper=upper)

    # ------------------------------------------------------------------
    # Size accounting (Table 2)
    # ------------------------------------------------------------------
    def index_size_entries(self) -> int:
        """Total finite distances stored (the paper's size measure)."""
        self._require_built()
        total = 0
        for landmark, per_mask in zip(self.landmarks, self._distances):
            for vector in per_mask.values():
                finite = int((vector != UNREACHABLE).sum())
                # The landmark itself (distance 0) is not an index entry.
                if vector[landmark] != UNREACHABLE:
                    finite -= 1
                total += finite
        return total

    def finite_counts_per_vertex(self) -> np.ndarray:
        """Finite stored distances per ``(landmark, vertex)`` pair.

        Returns a ``(k, n)`` array: entry ``[i, u]`` counts label sets ``C``
        with ``d_C(x_i, u) < ∞`` — the naive index's per-pair footprint used
        by Table 2.
        """
        self._require_built()
        counts = np.zeros((len(self.landmarks), self.graph.num_vertices), dtype=np.int64)
        for i, per_mask in enumerate(self._distances):
            for vector in per_mask.values():
                counts[i] += vector != UNREACHABLE
            counts[i, self.landmarks[i]] = 0
        return counts

    def average_entries_per_pair(self) -> float:
        """Average finite distances per reachable landmark-vertex pair."""
        counts = self.finite_counts_per_vertex()
        reachable = counts > 0
        if not reachable.any():
            return 0.0
        return float(counts[reachable].mean())
