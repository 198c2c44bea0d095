"""Exact LC-PPSPD computation (the evaluation's ground truth).

``ExactOracle`` answers every query exactly with a label-constrained
bidirectional BFS — precisely the strongest exact baseline the paper
measures speed-ups against (Section 5.2, footnote 3: on unweighted graphs
bidirectional Dijkstra degenerates to bidirectional BFS).

``ExactDijkstraOracle`` is the single-direction reference used in tests to
cross-check the bidirectional implementation, and the weighted-graph
extension mentioned in Section 2.
"""

from __future__ import annotations

import numpy as np

from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.traversal import (
    bidirectional_constrained_bfs,
    constrained_bfs,
    constrained_dijkstra,
)
from .types import INF, DistanceOracle

__all__ = ["ExactOracle", "ExactDijkstraOracle"]


class ExactOracle(DistanceOracle):
    """Exact answers via label-constrained bidirectional BFS (no index)."""

    name = "exact-bidirectional-bfs"

    def _query(self, source: int, target: int, label_mask: int) -> float:
        return bidirectional_constrained_bfs(self.graph, source, target, label_mask)

    def sssp(self, source: int, label_mask: int) -> np.ndarray:
        """Full constrained SSSP from ``source`` (``-1`` = unreachable)."""
        return constrained_bfs(self.graph, source, label_mask)


class ExactDijkstraOracle(DistanceOracle):
    """Exact answers via unidirectional constrained Dijkstra.

    Slower than :class:`ExactOracle` on unweighted graphs but supports
    arbitrary non-negative arc ``weights`` (parallel to the graph's arc
    arrays), covering the paper's "easily extended to weighted graphs"
    remark.
    """

    name = "exact-dijkstra"

    def __init__(self, graph: EdgeLabeledGraph, weights: np.ndarray | None = None):
        super().__init__(graph)
        self.weights = weights

    def _query(self, source: int, target: int, label_mask: int) -> float:
        distance = constrained_dijkstra(
            self.graph, source, label_mask, weights=self.weights, target=target
        )
        return float(distance) if distance != INF else INF
