"""Label-restricted contraction hierarchies, after Rice & Tsotras (PVLDB'10).

The only prior work on label-constrained shortest paths the paper compares
against adapts *contraction hierarchies* (Geisberger et al.) to label
restrictions: shortcuts record the **set of labels** of the path they
replace, and queries only relax edges/shortcuts whose label set is inside
the query constraint ``C``.

This is a from-scratch reimplementation of that idea, faithful in spirit:

* vertices are contracted in an edge-difference order; contracting ``v``
  adds, for each pair of remaining neighbors ``(u, w)``, a shortcut with
  weight ``w(u,v) + w(v,w)`` and label mask ``M(u,v) | M(v,w)``;
* parallel connections between a vertex pair are kept as a **Pareto set**
  over ``(weight, label mask)``: an entry is dropped when another has both
  smaller-or-equal weight and a subset label mask (it would be usable
  whenever the dropped one is, and never longer);
* contraction stops when the next vertex's remaining degree exceeds
  ``degree_limit`` — the uncontracted remainder forms a *core* whose
  internal edges stay bidirectional (the standard partial-CH escape hatch
  for graphs whose shortcut count explodes);
* queries run a bidirectional label-filtered Dijkstra over upward edges
  (plus the core) with the usual stop-when-min-key-≥-best criterion.

Queries are **exact** for every constraint ``C`` (property-tested against
plain Dijkstra).  On road-like grids the hierarchy is shallow and queries
are very fast; on power-law graphs the core is large and the method loses
to bidirectional BFS — precisely the comparison reported in the paper's
Section 5.2 ("bidirectional Dijkstra is often more efficient than the
method by Rice and Tsotras" on non-road graphs).
"""

from __future__ import annotations

import heapq

from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import label_bit
from ..core.types import DistanceOracle

__all__ = ["LabelConstrainedCH"]


def _pareto_insert(entries: list[tuple[int, int]], weight: int, mask: int) -> bool:
    """Insert ``(weight, mask)`` into a Pareto list; True if kept.

    Domination: ``(w1, m1)`` dominates ``(w2, m2)`` iff ``w1 <= w2`` and
    ``m1 ⊆ m2`` — the dominating connection is usable under every
    constraint the dominated one is, at no extra length.
    """
    for w_other, m_other in entries:
        if w_other <= weight and (m_other & mask) == m_other:
            return False
    entries[:] = [
        (w_other, m_other)
        for w_other, m_other in entries
        if not (weight <= w_other and (mask & m_other) == mask)
    ]
    entries.append((weight, mask))
    return True


class LabelConstrainedCH(DistanceOracle):
    """Partial contraction hierarchy with label-set-annotated shortcuts.

    Parameters
    ----------
    degree_limit:
        Contraction stops at the first vertex whose remaining degree
        exceeds this; the rest become the core.  Low values keep
        preprocessing fast on dense graphs at the price of a bigger core.
    """

    name = "rice-tsotras-ch"

    def __init__(self, graph: EdgeLabeledGraph, degree_limit: int = 24):
        super().__init__(graph)
        if graph.directed:
            raise ValueError("this CH implementation supports undirected graphs")
        if degree_limit < 1:
            raise ValueError("degree_limit must be positive")
        self.degree_limit = degree_limit
        #: contraction rank; core vertices share the maximal rank.
        self.rank: list[int] = []
        #: upward adjacency: vertex -> list of (neighbor, weight, mask).
        self.upward: list[list[tuple[int, int, int]]] = []
        self.core_size = 0
        self.num_shortcuts = 0
        self._built = False

    # ------------------------------------------------------------------
    # Preprocessing
    # ------------------------------------------------------------------
    def build(self) -> "LabelConstrainedCH":
        n = self.graph.num_vertices
        # Working adjacency: adj[u][v] -> Pareto list of (weight, mask).
        adj: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(n)]
        for u, v, label in self.graph.iter_edges():
            mask = label_bit(label)
            _pareto_insert(adj[u].setdefault(v, []), 1, mask)
            _pareto_insert(adj[v].setdefault(u, []), 1, mask)

        def priority(v: int) -> int:
            degree = len(adj[v])
            return degree * (degree - 1) // 2 - degree

        heap = [(priority(v), v) for v in range(n)]
        heapq.heapify(heap)
        self.rank = [n] * n  # default: core rank
        self.upward = [[] for _ in range(n)]
        contracted = [False] * n
        next_rank = 0

        while heap:
            prio, v = heapq.heappop(heap)
            if contracted[v]:
                continue
            current = priority(v)
            if current > prio:
                heapq.heappush(heap, (current, v))  # lazy re-evaluation
                continue
            if len(adj[v]) > self.degree_limit:
                break  # remaining vertices form the core
            # Freeze v's current connections as its upward edges.
            self.rank[v] = next_rank
            next_rank += 1
            contracted[v] = True
            neighbors = list(adj[v].items())
            for u, entries in neighbors:
                self.upward[v].extend((u, w, m) for w, m in entries)
                del adj[u][v]
            # Shortcuts between every remaining neighbor pair.
            for i in range(len(neighbors)):
                u, entries_u = neighbors[i]
                for j in range(i + 1, len(neighbors)):
                    w_vertex, entries_w = neighbors[j]
                    for weight_u, mask_u in entries_u:
                        for weight_w, mask_w in entries_w:
                            weight = weight_u + weight_w
                            mask = mask_u | mask_w
                            kept_uw = _pareto_insert(
                                adj[u].setdefault(w_vertex, []), weight, mask
                            )
                            kept_wu = _pareto_insert(
                                adj[w_vertex].setdefault(u, []), weight, mask
                            )
                            if kept_uw or kept_wu:
                                self.num_shortcuts += 1
                    if not adj[u].get(w_vertex):
                        adj[u].pop(w_vertex, None)
                    if not adj[w_vertex].get(u):
                        adj[w_vertex].pop(u, None)
            adj[v].clear()

        # Core: all uncontracted vertices keep their remaining connections
        # (bidirectional — both endpoints list each other).
        for v in range(n):
            if not contracted[v]:
                self.core_size += 1
                for u, entries in adj[v].items():
                    self.upward[v].extend((u, w, m) for w, m in entries)
        self._built = True
        return self

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _query(self, source: int, target: int, label_mask: int) -> float:
        if not self._built:
            raise RuntimeError("call build() before querying")
        if source == target:
            return 0.0
        infinity = float("inf")
        best = infinity
        dist: list[dict[int, float]] = [{source: 0.0}, {target: 0.0}]
        heaps: list[list[tuple[float, int]]] = [[(0.0, source)], [(0.0, target)]]
        settled: list[set[int]] = [set(), set()]

        while heaps[0] or heaps[1]:
            # Alternate over the side with the smaller current key.
            side = 0
            if not heaps[0] or (heaps[1] and heaps[1][0][0] < heaps[0][0][0]):
                side = 1
            d, u = heapq.heappop(heaps[side])
            if u in settled[side] or d > dist[side].get(u, infinity):
                continue
            if d >= best:
                heaps[side] = []  # this side can no longer improve
                continue
            settled[side].add(u)
            other = dist[1 - side].get(u)
            if other is not None and d + other < best:
                best = d + other
            for v, weight, mask in self.upward[u]:
                if mask & label_mask != mask:
                    continue
                nd = d + weight
                if nd < dist[side].get(v, infinity) and nd < best:
                    dist[side][v] = nd
                    heapq.heappush(heaps[side], (nd, v))
        return best

    def describe(self) -> str:
        return (
            f"{self.name}(core={self.core_size}, shortcuts={self.num_shortcuts}) "
            f"on {self.graph!r}"
        )
