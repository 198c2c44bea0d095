"""The mutation API: :class:`GraphDelta` and :func:`apply_delta`.

Graph *instances* stay immutable — every array a built oracle or a mapped
store hands out keeps meaning what it meant — but graphs are no longer
terminal: applying a delta produces a **new versioned graph** whose

* ``version`` is ``parent.version + 1``,
* ``parent_fingerprint`` is the parent's fingerprint,
* ``applied_delta`` is the delta itself (the repair layers read it), and
* fingerprint is the :func:`~repro.graph.fingerprint.delta_fingerprint`
  lineage hash, computed in ``O(|delta|)`` without rehashing the CSR.

Copy-on-write CSR adoption: a relabel-only delta shares ``indptr`` and
``neighbors`` with its parent outright (only ``edge_labels`` is copied),
so graphs opened zero-copy from the mmap store stay zero-copy — the
parent's arrays are only ever *read*.  Structural deltas rebuild the three
arrays with vectorized numpy ops.

Deltas are intentionally strict: every op must name an existing (for
deletions/relabels) or genuinely new (for insertions) edge, and one delta
may touch each vertex pair at most once.  That keeps application
order-independent and makes the lineage fingerprint well-defined.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .fingerprint import delta_fingerprint, graph_fingerprint
from .labeled_graph import EdgeLabeledGraph
from .labelsets import label_bit

__all__ = ["GraphDelta", "apply_delta"]


@dataclass(frozen=True)
class GraphDelta:
    """One batch of edge mutations: insertions, deletions, label changes.

    Ops are plain integer tuples — ``(u, v, label)`` for insertions and
    deletions, ``(u, v, old_label, new_label)`` for relabels.  For
    undirected graphs the orientation of ``(u, v)`` is irrelevant; for
    directed graphs each op names the arc ``u -> v``.
    """

    insertions: tuple[tuple[int, int, int], ...] = field(default=())
    deletions: tuple[tuple[int, int, int], ...] = field(default=())
    relabels: tuple[tuple[int, int, int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "insertions",
            tuple((int(u), int(v), int(l)) for u, v, l in self.insertions),
        )
        object.__setattr__(
            self,
            "deletions",
            tuple((int(u), int(v), int(l)) for u, v, l in self.deletions),
        )
        object.__setattr__(
            self,
            "relabels",
            tuple(
                (int(u), int(v), int(a), int(b)) for u, v, a, b in self.relabels
            ),
        )

    @property
    def is_empty(self) -> bool:
        return not (self.insertions or self.deletions or self.relabels)

    @property
    def num_ops(self) -> int:
        return len(self.insertions) + len(self.deletions) + len(self.relabels)

    def touched_label_mask(self) -> int:
        """Mask of every label any op mentions.

        A constraint mask ``C`` with ``C & touched == 0`` sees the exact
        same label-restricted subgraph before and after the delta — the
        soundness condition the repair layers and the rebound answer cache
        share (relabels contribute *both* their old and new label).
        """
        mask = 0
        for _, _, label in self.insertions:
            mask |= label_bit(label)
        for _, _, label in self.deletions:
            mask |= label_bit(label)
        for _, _, old_label, new_label in self.relabels:
            mask |= label_bit(old_label) | label_bit(new_label)
        return mask


def _arc_index(graph: EdgeLabeledGraph, u: int, v: int, label: int) -> int | None:
    """Index of the stored arc ``u -> v`` with ``label``, or ``None``."""
    start = int(graph.indptr[u])
    stop = int(graph.indptr[u + 1])
    block = graph.neighbors[start:stop]
    hits = np.nonzero((block == v) & (graph.edge_labels[start:stop] == label))[0]
    if len(hits) == 0:
        return None
    return start + int(hits[0])


def _validate_endpoint(graph: EdgeLabeledGraph, u: int, v: int, label: int) -> None:
    n = graph.num_vertices
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"delta op ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"self-loop on vertex {u} is not allowed")
    if not (0 <= label < graph.num_labels):
        raise ValueError(
            f"label id {label} out of range for |L|={graph.num_labels}"
        )


def _check_distinct_pairs(graph: EdgeLabeledGraph, delta: GraphDelta) -> None:
    seen: set[tuple[int, int]] = set()
    ops: Iterable[tuple[int, int]] = (
        [(u, v) for u, v, _ in delta.insertions]
        + [(u, v) for u, v, _ in delta.deletions]
        + [(u, v) for u, v, _, _ in delta.relabels]
    )
    for u, v in ops:
        pair = (u, v) if graph.directed else (min(u, v), max(u, v))
        if pair in seen:
            raise ValueError(
                f"delta touches edge {pair} more than once; split the "
                "mutations into successive deltas"
            )
        seen.add(pair)


def _version_result(
    graph: EdgeLabeledGraph, delta: GraphDelta, child: EdgeLabeledGraph
) -> EdgeLabeledGraph:
    child.version = graph.version + 1
    child.parent_fingerprint = graph_fingerprint(graph)
    child.applied_delta = delta
    child._fingerprint = delta_fingerprint(child.parent_fingerprint, delta)
    return child


def apply_delta(graph: EdgeLabeledGraph, delta: GraphDelta) -> EdgeLabeledGraph:
    """Apply ``delta`` to ``graph``, returning the next graph version.

    ``graph`` itself is untouched (its arrays are only read), so existing
    oracles, sessions and mapped stores bound to it stay valid; the result
    carries the version metadata described in the module docstring.
    """
    for u, v, label in delta.insertions:
        _validate_endpoint(graph, u, v, label)
        if _arc_index(graph, u, v, label) is not None:
            raise ValueError(f"edge ({u}, {v}, label={label}) already exists")
    for u, v, label in delta.deletions:
        _validate_endpoint(graph, u, v, label)
        if _arc_index(graph, u, v, label) is None:
            raise ValueError(f"edge ({u}, {v}, label={label}) does not exist")
    for u, v, old_label, new_label in delta.relabels:
        _validate_endpoint(graph, u, v, old_label)
        _validate_endpoint(graph, u, v, new_label)
        if old_label == new_label:
            raise ValueError(f"relabel of ({u}, {v}) to the same label")
        if _arc_index(graph, u, v, old_label) is None:
            raise ValueError(f"edge ({u}, {v}, label={old_label}) does not exist")
        if _arc_index(graph, u, v, new_label) is not None:
            raise ValueError(
                f"relabel target ({u}, {v}, label={new_label}) already exists"
            )
    _check_distinct_pairs(graph, delta)

    if not delta.insertions and not delta.deletions:
        return _version_result(graph, delta, _apply_relabels_cow(graph, delta))
    return _version_result(graph, delta, _apply_structural(graph, delta))


def _relabel_arcs(
    graph: EdgeLabeledGraph,
    labels: np.ndarray,
    relabels: tuple[tuple[int, int, int, int], ...],
) -> None:
    for u, v, old_label, new_label in relabels:
        for a, b in ((u, v),) if graph.directed else ((u, v), (v, u)):
            index = _arc_index(graph, a, b, old_label)
            assert index is not None  # validated by apply_delta
            labels[index] = new_label


def _apply_relabels_cow(
    graph: EdgeLabeledGraph, delta: GraphDelta
) -> EdgeLabeledGraph:
    """Relabel-only fast path: ``indptr``/``neighbors`` shared zero-copy."""
    labels = graph.edge_labels.copy()
    _relabel_arcs(graph, labels, delta.relabels)
    child = EdgeLabeledGraph(
        graph.indptr,
        graph.neighbors,
        labels,
        num_labels=graph.num_labels,
        directed=graph.directed,
        label_universe=graph.label_universe,
        num_edges=graph.num_edges,
    )
    # ``ascontiguousarray`` in the constructor is a same-object no-op for
    # the already-contiguous parent arrays; pin the sharing regardless so
    # mapped graphs provably stay zero-copy.
    child.indptr = graph.indptr
    child.neighbors = graph.neighbors
    return child


def _apply_structural(
    graph: EdgeLabeledGraph, delta: GraphDelta
) -> EdgeLabeledGraph:
    """General path: rebuild the CSR arrays (parent arrays only read)."""
    num_arcs = graph.num_arcs
    arc_sources = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
    )
    labels = graph.edge_labels
    if delta.relabels:
        labels = labels.copy()
        _relabel_arcs(graph, labels, delta.relabels)

    keep = np.ones(num_arcs, dtype=bool)
    for u, v, label in delta.deletions:
        for a, b in ((u, v),) if graph.directed else ((u, v), (v, u)):
            index = _arc_index(graph, a, b, label)
            assert index is not None  # validated by apply_delta
            keep[index] = False

    new_count = len(delta.insertions) * (1 if graph.directed else 2)
    new_sources = np.empty(new_count, dtype=np.int64)
    new_targets = np.empty(new_count, dtype=np.int32)
    new_labels = np.empty(new_count, dtype=np.int16)
    for i, (u, v, label) in enumerate(delta.insertions):
        if graph.directed:
            new_sources[i], new_targets[i], new_labels[i] = u, v, label
        else:
            new_sources[2 * i], new_targets[2 * i] = u, v
            new_sources[2 * i + 1], new_targets[2 * i + 1] = v, u
            new_labels[2 * i] = new_labels[2 * i + 1] = label

    sources = np.concatenate([arc_sources[keep], new_sources])
    targets = np.concatenate([graph.neighbors[keep], new_targets])
    arc_labels = np.concatenate([labels[keep], new_labels])
    order = np.argsort(sources, kind="stable")
    indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.add.at(indptr, sources + 1, 1)
    np.cumsum(indptr, out=indptr)
    return EdgeLabeledGraph(
        indptr,
        targets[order],
        arc_labels[order],
        num_labels=graph.num_labels,
        directed=graph.directed,
        label_universe=graph.label_universe,
        num_edges=graph.num_edges - len(delta.deletions) + len(delta.insertions),
    )
