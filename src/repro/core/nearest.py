"""Top-k nearest neighbors under a label constraint.

The knowledge-exploration application of the paper ranks candidate
entities by constrained distance from a query entity; this module packages
that pattern:

* :func:`constrained_nearest` — exact top-k over the whole graph via a
  truncated constrained BFS (stops as soon as k vertices are settled);
* :func:`rank_candidates` — rank an explicit candidate set through any
  :class:`DistanceOracle` (use an index for speed, the exact oracle for
  ground truth).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import full_mask
from ..graph.traversal import UNREACHABLE, label_filter, _frontier_arcs
from .types import DistanceOracle

__all__ = ["constrained_nearest", "rank_candidates"]


def constrained_nearest(
    graph: EdgeLabeledGraph,
    source: int,
    label_mask: int | None = None,
    k: int = 10,
    include_source: bool = False,
) -> list[tuple[int, int]]:
    """The ``k`` vertices closest to ``source`` within the constraint.

    Runs a constrained BFS that stops once at least ``k`` vertices are
    settled; ties at the cut-off distance are all returned (so the result
    may exceed ``k``), sorted by ``(distance, vertex id)``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if label_mask is None:
        label_mask = full_mask(graph.num_labels)
    allowed = label_filter(graph, label_mask)
    dist = np.full(graph.num_vertices, UNREACHABLE, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    results: list[tuple[int, int]] = [(0, source)] if include_source else []
    level = 0
    needed = k
    while len(frontier) and len(results) < needed:
        level += 1
        arc_idx = _frontier_arcs(graph.indptr, frontier)
        if len(arc_idx) == 0:
            break
        arc_idx = arc_idx[allowed[graph.edge_labels[arc_idx]]]
        targets = graph.neighbors[arc_idx]
        targets = targets[dist[targets] == UNREACHABLE]
        if len(targets) == 0:
            break
        frontier = np.unique(targets).astype(np.int64)
        dist[frontier] = level
        results.extend((level, int(v)) for v in frontier)
    results.sort()
    # Keep all ties at the k-th distance.
    if len(results) > k:
        cutoff = results[k - 1][0]
        results = [r for r in results if r[0] <= cutoff]
    return [(v, d) for d, v in results]


def rank_candidates(
    oracle: DistanceOracle,
    source: int,
    candidates: Iterable[int],
    label_mask: int,
    k: int | None = None,
) -> list[tuple[int, float]]:
    """Rank ``candidates`` by (estimated) constrained distance to ``source``.

    Unreachable candidates are dropped; ties break by candidate id for
    determinism.  ``k`` truncates the ranking when given.
    """
    scored = []
    for candidate in candidates:
        if candidate == source:
            continue
        distance = oracle.query(source, candidate, label_mask)
        if not math.isinf(distance):
            scored.append((distance, candidate))
    scored.sort()
    if k is not None:
        scored = scored[:k]
    return [(candidate, distance) for distance, candidate in scored]
