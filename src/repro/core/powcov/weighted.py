"""Weighted-graph PowCov — the Section 2 "easily extended" remark, realized.

Subsumption and SP-minimality (Definitions 1-2) never use unit edge
lengths, and neither does the Theorem 2 one-label-removed test, so the
PowCov construction carries over to non-negative arc weights verbatim once
the constrained SSSPs run Dijkstra instead of BFS.  What does *not* carry
over untouched:

* Observation 2 (``|C| <= d_C(x, u)``) counts *edges*; it stays valid only
  when every weight is ``>= 1`` (then #edges <= total weight).  The builder
  applies it exactly in that case.
* Observations 3-4 rely on the BFS level structure; re-deriving them for
  Dijkstra DAGs buys little because the SSSP phase dominates anyway, so
  the weighted builder uses Observation 1 + the vectorized Theorem 2 test.

Equality of float distances decides subsumption; with real-valued weights
two genuinely different path lengths can collide within rounding.  Integer
or otherwise exactly-representable weights (the common case: travel times
in seconds, costs in cents) are decided exactly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ...graph.labeled_graph import EdgeLabeledGraph
from ...graph.labelsets import full_mask, iter_one_removed, popcount
from ...graph.traversal import constrained_dijkstra
from .index import PowCovIndex
from .spminimal import EntryParts, LandmarkSPMinimal, generate_candidates

__all__ = ["weighted_sp_minimal", "WeightedPowCovIndex"]


def weighted_sp_minimal(
    graph: EdgeLabeledGraph,
    landmark: int,
    weights: np.ndarray,
    use_obs1: bool = True,
) -> LandmarkSPMinimal:
    """SP-minimal label sets under non-negative arc ``weights``.

    ``weights`` is parallel to the graph's arc arrays.  Distances are
    float64.
    """
    if len(weights) != graph.num_arcs:
        raise ValueError("weights must be parallel to the arc arrays")
    if (np.asarray(weights) < 0).any():
        raise ValueError("weights must be non-negative")
    result = LandmarkSPMinimal(landmark=landmark)
    if use_obs1:
        candidates = generate_candidates(graph, landmark)
    else:
        candidates = list(range(1, full_mask(graph.num_labels) + 1))
    if not candidates:
        return result

    apply_obs2 = bool((np.asarray(weights) >= 1.0).all())
    distances: dict[int, np.ndarray] = {}
    parts = EntryParts()
    for mask in candidates:
        dist_c = constrained_dijkstra(graph, landmark, mask, weights=weights)
        distances[mask] = dist_c
        result.num_sssp += 1

        finite = np.isfinite(dist_c)
        finite[landmark] = False
        if apply_obs2:
            finite &= dist_c >= popcount(mask)
        if not finite.any():
            continue

        subset_arrays = [
            distances[sub]
            for sub in iter_one_removed(mask)
            if sub != 0 and sub in distances
        ]
        result.num_full_tests += int(finite.sum())
        if subset_arrays:
            best = subset_arrays[0]
            for arr in subset_arrays[1:]:
                best = np.minimum(best, arr)
            minimal = finite & (dist_c < best)
        else:
            minimal = finite
        vertices = np.flatnonzero(minimal)
        parts.add(vertices, dist_c[vertices].astype(np.float64), mask)
    result.set_entries(parts)
    return result


class WeightedPowCovIndex(PowCovIndex):
    """PowCov over a weighted edge-labeled graph.

    Identical query processing to :class:`PowCovIndex` (its table holds
    float64 distances); only the build step differs.
    """

    name = "powcov-weighted"

    def __init__(
        self,
        graph: EdgeLabeledGraph,
        landmarks: Sequence[int],
        weights: np.ndarray,
        estimator: str = "upper",
    ):
        if graph.directed:
            # The reversed-graph pass would need the weights re-permuted to
            # the reversed arc order; not implemented yet.
            raise ValueError("weighted PowCov supports undirected graphs only")
        super().__init__(graph, landmarks, builder="traverse", estimator=estimator)
        if len(weights) != graph.num_arcs:
            raise ValueError("weights must be parallel to the arc arrays")
        self.weights = np.asarray(weights, dtype=np.float64)

    def _build_task_extra(self) -> dict:
        return {"builder": self.builder, "weights": self.weights}
