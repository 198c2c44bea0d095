"""Bidirectional BFS baseline (the paper's strongest exact competitor).

Section 5.2 measures index speed-ups against the faster of two exact
methods; on all the paper's datasets that is the label-constrained
bidirectional BFS (footnote 3).  The traversal lives in
:mod:`repro.graph.traversal`; this module packages it as a
:class:`DistanceOracle` so the evaluation harness can treat baselines and
indexes uniformly, and adds the unidirectional variant for comparison.
"""

from __future__ import annotations

from ..graph.traversal import UNREACHABLE, bidirectional_constrained_bfs, constrained_bfs
from ..core.types import DistanceOracle

__all__ = ["BidirectionalBFSBaseline", "UnidirectionalBFSBaseline"]


class BidirectionalBFSBaseline(DistanceOracle):
    """Exact label-constrained bidirectional BFS; no preprocessing."""

    name = "bidirectional-bfs"

    def _query(self, source: int, target: int, label_mask: int) -> float:
        return bidirectional_constrained_bfs(self.graph, source, target, label_mask)


class UnidirectionalBFSBaseline(DistanceOracle):
    """Exact single-direction BFS (runs the full SSSP; used in ablations)."""

    name = "unidirectional-bfs"

    def _query(self, source: int, target: int, label_mask: int) -> float:
        if source == target:
            return 0.0
        dist = constrained_bfs(self.graph, source, label_mask)
        value = int(dist[target])
        return float(value) if value != UNREACHABLE else float("inf")
