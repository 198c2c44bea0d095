"""Traversal primitives over :class:`EdgeLabeledGraph`.

Everything here is label-aware: the central routine is the *C-constrained*
breadth-first search — a BFS that ignores edges whose label is not in the
constraint mask ``C``.  All oracles, baselines and index builders are
assembled from these primitives.

Distances are returned as numpy ``int32`` arrays with ``-1`` denoting
"unreachable"; the module constant :data:`UNREACHABLE` names that sentinel.
Point-to-point helpers return ``math.inf`` for unreachable pairs, matching
the paper's ``d_C(u, v) = ∞`` convention.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .labeled_graph import EdgeLabeledGraph
from .labelsets import full_mask, np_label_bits

__all__ = [
    "UNREACHABLE",
    "label_filter",
    "constrained_bfs",
    "csr_constrained_bfs",
    "constrained_bfs_levels",
    "constrained_bfs_tree",
    "constrained_bfs_parents",
    "constrained_shortest_path",
    "bfs",
    "constrained_distance",
    "bidirectional_constrained_bfs",
    "constrained_dijkstra",
    "monochromatic_sp_labels",
    "connected_components",
    "largest_component_vertices",
    "eccentricity_lower_bound",
    "estimate_diameter",
]

#: Sentinel stored in distance arrays for unreachable vertices.
UNREACHABLE = -1


#: Upper bound on cached label tables per graph; a brute-force powerset
#: sweep visits each mask once, so unbounded growth buys nothing there.
_LABEL_FILTER_CACHE_LIMIT = 4096


def label_filter(graph: EdgeLabeledGraph, mask: int) -> np.ndarray:
    """Boolean lookup table: ``table[label_id]`` is True iff the label is in ``mask``.

    Computed once per ``(graph, mask)`` — the table is memoized on the
    graph, so repeated constrained traversals with the same constraint
    reuse it.  Callers must not mutate the returned array.
    """
    cache = graph._label_filter_cache
    table = cache.get(mask)
    if table is None:
        if graph.num_labels <= 63:
            shifts = np.arange(graph.num_labels, dtype=np.int64)
            table = ((np.int64(mask) >> shifts) & 1).astype(bool)
        else:  # masks beyond int64: bit-test label by label
            table = np.fromiter(
                (bool(mask >> label & 1) for label in range(graph.num_labels)),
                dtype=bool,
                count=graph.num_labels,
            )
        if len(cache) >= _LABEL_FILTER_CACHE_LIMIT:
            # Evict the oldest entry (dicts preserve insertion order)
            # instead of dropping the whole cache: a hot working set
            # larger than one mask survives the limit.
            cache.pop(next(iter(cache)))
        cache[mask] = table
    return table


def _frontier_arcs(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Indices of all arcs leaving the vertices in ``frontier``."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # arc_idx[j] enumerates each frontier vertex's CSR slice contiguously.
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + offsets


def constrained_bfs(
    graph: EdgeLabeledGraph,
    source: int,
    mask: int | None = None,
    allowed: np.ndarray | None = None,
) -> np.ndarray:
    """C-constrained single-source shortest paths (unweighted).

    Parameters
    ----------
    mask:
        Constraint label set as a bitmask; ``None`` means "all labels".
    allowed:
        Optional precomputed per-label boolean table (see
        :func:`label_filter`); overrides ``mask`` when given.

    Returns
    -------
    ``int32`` distance array with ``-1`` for unreachable vertices.
    """
    if allowed is None:
        if mask is None:
            mask = full_mask(graph.num_labels)
        allowed = label_filter(graph, mask)
    dist = np.full(graph.num_vertices, UNREACHABLE, dtype=np.int32)
    csr_constrained_bfs(
        graph.indptr, graph.neighbors, graph.edge_labels, allowed, source, dist
    )
    return dist


def csr_constrained_bfs(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    edge_labels: np.ndarray,
    allowed: np.ndarray,
    source: int,
    dist: np.ndarray,
    max_level: int = -1,
) -> None:
    """The level loop of :func:`constrained_bfs` over raw CSR arrays.

    Writes ``source``'s levels into the ``int32`` row ``dist`` in place;
    vertices already off :data:`UNREACHABLE` are never revisited, so
    ``dist`` must start unreachable everywhere but at ``source``.
    ``max_level`` is an inclusive cap (``-1`` = unbounded): farther
    vertices stay unreachable.  This is also the numpy kernel's sparse
    multi-source sweep, run once per row.
    """
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    fresh = np.empty(len(dist), dtype=bool)  # reused across levels
    level = 0
    while len(frontier):
        level += 1
        if 0 <= max_level < level:
            break
        arc_idx = _frontier_arcs(indptr, frontier)
        if len(arc_idx) == 0:
            break
        arc_idx = arc_idx[allowed[edge_labels[arc_idx]]]
        # Deduplicate arc targets *before* the distance gather: high-degree
        # frontiers revisit the same target many times per level.
        targets = np.unique(neighbors[arc_idx])
        if len(targets) == 0:
            break
        unvisited = np.equal(dist[targets], UNREACHABLE, out=fresh[: len(targets)])
        frontier = targets[unvisited].astype(np.int64)
        if len(frontier) == 0:
            break
        dist[frontier] = level


def constrained_bfs_levels(
    graph: EdgeLabeledGraph,
    source: int,
    mask: int | None = None,
    allowed: np.ndarray | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Like :func:`constrained_bfs` but also returns the BFS levels.

    ``levels[t]`` is the ascending ``int64`` array of vertices at
    distance exactly ``t``, read off the distance row.
    """
    dist = constrained_bfs(graph, source, mask, allowed)
    reached = np.flatnonzero(dist != UNREACHABLE)
    by_level = reached[np.argsort(dist[reached], kind="stable")]
    bounds = np.cumsum(np.bincount(dist[reached]))[:-1]
    return dist, np.split(by_level, bounds)


def constrained_bfs_tree(
    graph: EdgeLabeledGraph,
    source: int,
    mask: int | None = None,
    allowed: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Constrained BFS that also reports the shortest-path DAG arcs.

    Returns ``(dist, tree_edges)`` where ``tree_edges[t]`` is a triple of
    parallel arrays ``(sources, targets, labels)`` holding *every* allowed
    arc from a level-``t-1`` vertex to a level-``t`` vertex
    (``tree_edges[0]`` is empty).  The PowCov builder's Observation 4 and
    :func:`monochromatic_sp_labels` consume these; extracting them inside
    the BFS costs nothing beyond retaining arrays the traversal computes
    anyway.
    """
    if allowed is None:
        if mask is None:
            mask = full_mask(graph.num_labels)
        allowed = label_filter(graph, mask)
    dist = np.full(graph.num_vertices, UNREACHABLE, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    tree_edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [(empty, empty, empty)]
    level = 0
    while len(frontier):
        level += 1
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        ends = np.cumsum(counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        arc_idx = np.repeat(starts, counts) + offsets
        sources = np.repeat(frontier, counts)
        arc_labels = graph.edge_labels[arc_idx]
        ok = allowed[arc_labels]
        arc_idx = arc_idx[ok]
        sources = sources[ok]
        arc_labels = arc_labels[ok]
        targets = graph.neighbors[arc_idx].astype(np.int64)
        keep = dist[targets] == UNREACHABLE
        targets = targets[keep]
        sources = sources[keep]
        arc_labels = arc_labels[keep]
        if len(targets) == 0:
            break
        frontier = np.unique(targets)
        dist[frontier] = level
        tree_edges.append((sources, targets, arc_labels.astype(np.int64)))
    return dist, tree_edges


def bfs(graph: EdgeLabeledGraph, source: int) -> np.ndarray:
    """Unconstrained single-source shortest paths."""
    return constrained_bfs(graph, source, full_mask(graph.num_labels))


def constrained_distance(
    graph: EdgeLabeledGraph, source: int, target: int, mask: int | None = None
) -> float:
    """Exact ``d_C(source, target)`` via bidirectional constrained BFS."""
    return bidirectional_constrained_bfs(graph, source, target, mask)


def bidirectional_constrained_bfs(
    graph: EdgeLabeledGraph,
    source: int,
    target: int,
    mask: int | None = None,
) -> float:
    """Label-constrained bidirectional BFS — the paper's exact baseline.

    Alternately expands the smaller of the two frontiers; terminates as soon
    as the frontiers meet.  For unweighted graphs this returns the exact
    constrained distance (the meeting level cannot be improved by further
    expansion, because per-side levels grow by exactly one per step).
    Returns ``math.inf`` when no C-constrained path exists.

    Directed graphs are supported by expanding the backward search on the
    reversed adjacency.
    """
    if source == target:
        return 0.0
    if mask is None:
        mask = full_mask(graph.num_labels)
    allowed = label_filter(graph, mask)

    forward_graph = graph
    backward_graph = graph.reversed() if graph.directed else graph

    dist_f = np.full(graph.num_vertices, UNREACHABLE, dtype=np.int32)
    dist_b = np.full(graph.num_vertices, UNREACHABLE, dtype=np.int32)
    dist_f[source] = 0
    dist_b[target] = 0
    frontier_f = np.array([source], dtype=np.int64)
    frontier_b = np.array([target], dtype=np.int64)
    depth_f = depth_b = 0
    best = math.inf

    while len(frontier_f) and len(frontier_b):
        # Expand the cheaper side (fewer outgoing arcs to scan).
        cost_f = int((graph.indptr[frontier_f + 1] - graph.indptr[frontier_f]).sum())
        cost_b = int(
            (backward_graph.indptr[frontier_b + 1] - backward_graph.indptr[frontier_b]).sum()
        )
        if cost_f <= cost_b:
            side_graph, frontier = forward_graph, frontier_f
            dist_mine, dist_other = dist_f, dist_b
            depth_f += 1
            depth = depth_f
        else:
            side_graph, frontier = backward_graph, frontier_b
            dist_mine, dist_other = dist_b, dist_f
            depth_b += 1
            depth = depth_b

        arc_idx = _frontier_arcs(side_graph.indptr, frontier)
        if len(arc_idx):
            arc_idx = arc_idx[allowed[side_graph.edge_labels[arc_idx]]]
        if len(arc_idx) == 0:
            new_frontier = np.empty(0, dtype=np.int64)
        else:
            targets = side_graph.neighbors[arc_idx]
            targets = targets[dist_mine[targets] == UNREACHABLE]
            new_frontier = np.unique(targets).astype(np.int64)
            dist_mine[new_frontier] = depth

        if len(new_frontier):
            met = new_frontier[dist_other[new_frontier] != UNREACHABLE]
            if len(met):
                candidate = int(
                    (dist_f[met].astype(np.int64) + dist_b[met].astype(np.int64)).min()
                )
                best = min(best, float(candidate))

        if cost_f <= cost_b:
            frontier_f = new_frontier
        else:
            frontier_b = new_frontier

        # The smallest distance still discoverable is depth_f + depth_b + 1.
        if best <= depth_f + depth_b:
            return best
    return best


def constrained_dijkstra(
    graph: EdgeLabeledGraph,
    source: int,
    mask: int | None = None,
    weights: np.ndarray | None = None,
    target: int | None = None,
) -> np.ndarray | float:
    """C-constrained single-source Dijkstra for weighted graphs.

    ``weights`` is an array parallel to the arc arrays (defaults to all-ones,
    in which case the result matches :func:`constrained_bfs`).  When
    ``target`` is given, returns the single distance as a float (``inf`` if
    unreachable) and may stop early; otherwise returns the full ``float64``
    distance array with ``inf`` for unreachable vertices.
    """
    if mask is None:
        mask = full_mask(graph.num_labels)
    allowed = label_filter(graph, mask)
    if weights is None:
        weights = np.ones(graph.num_arcs, dtype=np.float64)
    elif len(weights) != graph.num_arcs:
        raise ValueError("weights must be parallel to the arc arrays")

    dist = np.full(graph.num_vertices, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    indptr, neighbors, labels = graph.indptr, graph.neighbors, graph.edge_labels
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if target is not None and u == target:
            return float(d)
        for i in range(indptr[u], indptr[u + 1]):
            if not allowed[labels[i]]:
                continue
            v = int(neighbors[i])
            nd = d + float(weights[i])
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    if target is not None:
        return float(dist[target])
    return dist


def constrained_bfs_parents(
    graph: EdgeLabeledGraph,
    source: int,
    mask: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Constrained BFS that also returns a shortest-path parent array.

    ``parents[u]`` is a predecessor of ``u`` on some C-constrained shortest
    path from ``source`` (``-1`` for the source and unreachable vertices).
    """
    if mask is None:
        mask = full_mask(graph.num_labels)
    dist, tree_edges = constrained_bfs_tree(graph, source, mask)
    parents = np.full(graph.num_vertices, -1, dtype=np.int64)
    for sources, targets, _labels in tree_edges[1:]:
        # Later writes overwrite earlier ones; any shortest-path parent is
        # acceptable, so no tie-breaking is needed.
        parents[targets] = sources
    return dist, parents


def constrained_shortest_path(
    graph: EdgeLabeledGraph,
    source: int,
    target: int,
    mask: int | None = None,
) -> list[int] | None:
    """An actual C-constrained shortest path (vertex list), or ``None``.

    The witness-path API: callers that need to *show* the path behind a
    distance (the PathBLAST-style example, debugging index answers) use
    this; it costs one constrained BFS.
    """
    if source == target:
        return [source]
    dist, parents = constrained_bfs_parents(graph, source, mask)
    if dist[target] == UNREACHABLE:
        return None
    path = [target]
    current = target
    while current != source:
        current = int(parents[current])
        path.append(current)
    path.reverse()
    return path


def monochromatic_sp_labels(graph: EdgeLabeledGraph, source: int) -> np.ndarray:
    """Labels of monochromatic *unconstrained* shortest paths from ``source``.

    Returns an ``int64`` mask array ``mono`` where bit ``l`` of ``mono[u]``
    is set iff some unconstrained shortest path from ``source`` to ``u`` uses
    only edges labeled ``l``.  This powers Observation 3 of the paper: if
    ``mono[u]`` has bit ``l`` set, every label set strictly containing ``l``
    is non-SP-minimal w.r.t. ``(source, u)``.

    Computed by one tree-reporting BFS plus a level-by-level propagation:
    ``mono[u] = OR over shortest-path DAG arcs (v, u) of
    (mono[v] & bit(label(v, u)))`` with ``mono[source]`` = all labels.
    """
    dist, tree_edges = constrained_bfs_tree(graph, source)
    del dist
    mono = np.zeros(graph.num_vertices, dtype=np.int64)
    mono[source] = full_mask(graph.num_labels)
    for sources, targets, labels in tree_edges[1:]:
        contribution = mono[sources] & np_label_bits(labels)
        np.bitwise_or.at(mono, targets, contribution)
    return mono


def connected_components(graph: EdgeLabeledGraph) -> np.ndarray:
    """Component id per vertex (undirected semantics; directed = weak)."""
    comp = np.full(graph.num_vertices, -1, dtype=np.int64)
    # Weakly connected for directed graphs: BFS over both arc orientations.
    reverse = graph.reversed() if graph.directed else None
    next_id = 0
    for start in range(graph.num_vertices):
        if comp[start] != -1:
            continue
        comp[start] = next_id
        frontier = np.array([start], dtype=np.int64)
        while len(frontier):
            arc_idx = _frontier_arcs(graph.indptr, frontier)
            targets = graph.neighbors[arc_idx]
            if reverse is not None:
                back_idx = _frontier_arcs(reverse.indptr, frontier)
                targets = np.concatenate([targets, reverse.neighbors[back_idx]])
            targets = targets[comp[targets] == -1]
            frontier = np.unique(targets).astype(np.int64)
            comp[frontier] = next_id
        next_id += 1
    return comp


def largest_component_vertices(graph: EdgeLabeledGraph) -> np.ndarray:
    """Vertices of the largest (weakly) connected component."""
    comp = connected_components(graph)
    counts = np.bincount(comp)
    biggest = int(counts.argmax())
    return np.nonzero(comp == biggest)[0]


def eccentricity_lower_bound(graph: EdgeLabeledGraph, source: int) -> tuple[int, int]:
    """``(eccentricity, farthest_vertex)`` of ``source`` within its component."""
    dist = bfs(graph, source)
    reachable = dist >= 0
    ecc = int(dist[reachable].max())
    farthest = int(np.nonzero(dist == ecc)[0][0])
    return ecc, farthest


def estimate_diameter(
    graph: EdgeLabeledGraph, sweeps: int = 4, seed: int | None = 0
) -> int:
    """Double-sweep lower bound on the diameter of the largest component.

    Repeated double sweeps from random starting points; exact on trees and a
    tight lower bound in practice — the standard technique for Table-1 style
    "diameter" statistics.
    """
    vertices = largest_component_vertices(graph)
    if len(vertices) <= 1:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(max(1, sweeps)):
        start = int(rng.choice(vertices))
        _, far = eccentricity_lower_bound(graph, start)
        ecc, _ = eccentricity_lower_bound(graph, far)
        best = max(best, ecc)
    return best
