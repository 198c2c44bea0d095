"""The edge-labeled graph substrate.

``EdgeLabeledGraph`` is the graph type every oracle and baseline in this
package operates on.  It matches the paper's model (Section 2): an
undirected, unweighted graph ``G = (V, E, L, l)`` where ``l`` assigns exactly
one label to each edge.  Directed graphs are supported as well (the paper
notes the extension is straightforward); weighted queries are handled by the
constrained Dijkstra in :mod:`repro.graph.traversal`.

Storage is CSR (compressed sparse row): three numpy arrays ``indptr``,
``neighbors`` and ``edge_labels``.  For an undirected graph every edge is
stored in both directions so that neighborhood iteration never branches.

Each *instance* is immutable — its CSR arrays are never written after
construction, so indexes, mapped stores and caches built against it stay
valid forever.  Graphs still evolve: :meth:`EdgeLabeledGraph.apply_delta`
/ :meth:`EdgeLabeledGraph.apply_edges` (see :mod:`repro.graph.delta`)
return the *next version* as a new instance carrying ``version``,
``parent_fingerprint`` and ``applied_delta`` lineage metadata.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .delta import GraphDelta

from .labelsets import LabelUniverse, full_mask, mask_from_labels, np_label_bits

__all__ = ["EdgeLabeledGraph"]


class EdgeLabeledGraph:
    """Edge-labeled graph in CSR form (instances immutable, versions linked).

    Construct instances through :class:`repro.graph.builder.GraphBuilder` or
    the :meth:`from_edges` convenience constructor rather than by hand.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the neighbors of vertex ``u``
        live in ``neighbors[indptr[u]:indptr[u + 1]]``.
    neighbors:
        ``int32`` array of neighbor vertex ids, one entry per directed arc.
    edge_labels:
        ``int8``/``int16`` array parallel to ``neighbors`` with the dense
        label id of each arc.
    """

    __slots__ = (
        "indptr",
        "neighbors",
        "edge_labels",
        "num_labels",
        "directed",
        "label_universe",
        "version",
        "parent_fingerprint",
        "applied_delta",
        "_num_edges",
        "_incident_label_masks",
        "_label_filter_cache",
        "_fingerprint",
        "_reversed",
        "_neighbor_search",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        neighbors: np.ndarray,
        edge_labels: np.ndarray,
        num_labels: int,
        directed: bool = False,
        label_universe: LabelUniverse | None = None,
        num_edges: int | None = None,
    ):
        if indptr.ndim != 1 or neighbors.ndim != 1 or edge_labels.ndim != 1:
            raise ValueError("CSR arrays must be one-dimensional")
        if len(neighbors) != len(edge_labels):
            raise ValueError("neighbors and edge_labels must be parallel arrays")
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(neighbors):
            raise ValueError("malformed indptr array")
        if num_labels <= 0:
            raise ValueError("graphs must have at least one label")
        if edge_labels.size and int(edge_labels.max(initial=0)) >= num_labels:
            raise ValueError("edge label id out of range")

        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.neighbors = np.ascontiguousarray(neighbors, dtype=np.int32)
        self.edge_labels = np.ascontiguousarray(edge_labels, dtype=np.int16)
        self.num_labels = int(num_labels)
        self.directed = bool(directed)
        self.label_universe = label_universe
        if num_edges is None:
            num_edges = len(neighbors) if directed else len(neighbors) // 2
        self._num_edges = int(num_edges)
        self._incident_label_masks: np.ndarray | None = None
        #: per-mask boolean label tables, filled lazily by ``label_filter``.
        self._label_filter_cache: dict[int, np.ndarray] = {}
        #: cached structural fingerprint, filled by ``graph_fingerprint``
        #: (or preset with the lineage hash by ``apply_delta``).
        self._fingerprint: np.int64 | None = None
        self._reversed: EdgeLabeledGraph | None = None
        #: per-slice target-sorted neighbor view for ``edge_label`` probes.
        self._neighbor_search: tuple[np.ndarray, np.ndarray] | None = None
        #: version metadata; ``apply_delta`` stamps these on its results.
        self.version: int = 0
        self.parent_fingerprint: np.int64 | None = None
        self.applied_delta: GraphDelta | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[tuple[int, int, int]],
        num_labels: int | None = None,
        directed: bool = False,
        label_universe: LabelUniverse | None = None,
    ) -> "EdgeLabeledGraph":
        """Build a graph from ``(u, v, label_id)`` triples.

        For undirected graphs each input edge is materialized as two arcs.
        Self-loops are rejected: they never participate in a shortest path of
        an unweighted graph and complicate degree accounting.
        """
        edge_list = list(edges)
        for u, v, label in edge_list:
            if u == v:
                raise ValueError(f"self-loop on vertex {u} is not allowed")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for n={num_vertices}")
            if label < 0:
                raise ValueError(f"negative label id {label}")
        if num_labels is None:
            num_labels = 1 + max((label for _, _, label in edge_list), default=0)

        arc_count = len(edge_list) if directed else 2 * len(edge_list)
        sources = np.empty(arc_count, dtype=np.int64)
        targets = np.empty(arc_count, dtype=np.int32)
        labels = np.empty(arc_count, dtype=np.int16)
        for i, (u, v, label) in enumerate(edge_list):
            if directed:
                sources[i], targets[i], labels[i] = u, v, label
            else:
                sources[2 * i], targets[2 * i], labels[2 * i] = u, v, label
                sources[2 * i + 1], targets[2 * i + 1], labels[2 * i + 1] = v, u, label

        order = np.argsort(sources, kind="stable")
        sources = sources[order]
        targets = targets[order]
        labels = labels[order]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, sources + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(
            indptr,
            targets,
            labels,
            num_labels=num_labels,
            directed=directed,
            label_universe=label_universe,
            num_edges=len(edge_list),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges ``m``."""
        return self._num_edges

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (``2m`` for undirected graphs)."""
        return len(self.neighbors)

    def degree(self, u: int) -> int:
        """Out-degree of ``u`` (== degree for undirected graphs)."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an ``int64`` array."""
        return np.diff(self.indptr)

    def neighbors_of(self, u: int) -> np.ndarray:
        """Neighbor ids of ``u`` (a CSR slice — do not mutate)."""
        return self.neighbors[self.indptr[u] : self.indptr[u + 1]]

    def labels_of(self, u: int) -> np.ndarray:
        """Arc labels of ``u``'s incident arcs, parallel to :meth:`neighbors_of`."""
        return self.edge_labels[self.indptr[u] : self.indptr[u + 1]]

    def iter_neighbors(self, u: int) -> Iterator[tuple[int, int]]:
        """Yield ``(neighbor, label_id)`` pairs for ``u``."""
        start, stop = self.indptr[u], self.indptr[u + 1]
        for i in range(start, stop):
            yield int(self.neighbors[i]), int(self.edge_labels[i])

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each edge once as ``(u, v, label_id)``.

        For undirected graphs only the ``u < v`` orientation is yielded
        (parallel edges with distinct labels are yielded once per label).
        """
        for u in range(self.num_vertices):
            start, stop = self.indptr[u], self.indptr[u + 1]
            for i in range(start, stop):
                v = int(self.neighbors[i])
                if self.directed or u < v:
                    yield u, v, int(self.edge_labels[i])

    def _neighbor_search_view(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_neighbors, order)``: each CSR slice sorted by target id.

        ``sorted_neighbors[indptr[u]:indptr[u+1]]`` is ``neighbors_of(u)``
        in ascending order and ``order`` maps positions in the sorted view
        back to original arc indices.  Built lazily in one vectorized
        ``O(arcs log arcs)`` pass; ``edge_label``/``has_edge`` then probe a
        slice in ``O(log degree)`` instead of scanning it.
        """
        if self._neighbor_search is None:
            arc_sources = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
            )
            key = arc_sources * (self.num_vertices + 1) + self.neighbors
            order = np.argsort(key, kind="stable")
            self._neighbor_search = (self.neighbors[order], order)
        return self._neighbor_search

    def edge_label(self, u: int, v: int) -> int | None:
        """Dense label id of edge ``(u, v)``, or ``None`` if absent.

        If parallel edges with different labels exist, the first stored one
        is returned.  Binary search over the target-sorted slice view
        (``O(log degree)`` after a lazy one-off sort of all arcs).
        """
        start, stop = int(self.indptr[u]), int(self.indptr[u + 1])
        if start == stop:
            return None
        sorted_neighbors, order = self._neighbor_search_view()
        block = sorted_neighbors[start:stop]
        lo = int(np.searchsorted(block, v, side="left"))
        hi = int(np.searchsorted(block, v, side="right"))
        if lo == hi:
            return None
        # Parallel edges: the minimum original arc index preserves the
        # documented "first stored" semantics of the old linear scan.
        arc = int(order[start + lo : start + hi].min())
        return int(self.edge_labels[arc])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff an arc ``u -> v`` exists (``O(log degree)``)."""
        start, stop = int(self.indptr[u]), int(self.indptr[u + 1])
        if start == stop:
            return False
        block = self._neighbor_search_view()[0][start:stop]
        lo = int(np.searchsorted(block, v, side="left"))
        return lo < stop - start and int(block[lo]) == v

    # ------------------------------------------------------------------
    # Versioned mutation
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> "EdgeLabeledGraph":
        """Apply a :class:`~repro.graph.delta.GraphDelta`, returning the
        next graph version (this instance is untouched; see
        :func:`repro.graph.delta.apply_delta`)."""
        from .delta import apply_delta

        return apply_delta(self, delta)

    def apply_edges(
        self,
        insertions: Iterable[tuple[int, int, int]] = (),
        deletions: Iterable[tuple[int, int, int]] = (),
        relabels: Iterable[tuple[int, int, int, int]] = (),
    ) -> "EdgeLabeledGraph":
        """Convenience wrapper: build a delta from the op lists and apply it.

        ``insertions``/``deletions`` take ``(u, v, label)`` triples,
        ``relabels`` takes ``(u, v, old_label, new_label)``.
        """
        from .delta import GraphDelta

        return self.apply_delta(
            GraphDelta(
                insertions=tuple(insertions),
                deletions=tuple(deletions),
                relabels=tuple(relabels),
            )
        )

    # ------------------------------------------------------------------
    # Label-oriented accessors
    # ------------------------------------------------------------------
    def full_label_mask(self) -> int:
        """Mask with every label of the graph set."""
        return full_mask(self.num_labels)

    def incident_label_mask(self, u: int) -> int:
        """Mask of labels on edges incident to ``u`` (the paper's ``L_x``).

        Used by Observation 1: a label set ``C`` disconnects landmark ``x``
        from the whole graph iff ``C`` avoids every label in ``L_x``.
        """
        return int(self.incident_label_masks()[u])

    def incident_label_masks(self) -> np.ndarray:
        """``L_u`` masks for all vertices, cached (``int64`` array).

        Only valid while ``num_labels <= 63``; callers with more labels
        should derive masks via :meth:`labels_of`.  All the paper's datasets
        have at most a few tens of labels.
        """
        if self._incident_label_masks is None:
            if self.num_labels > 63:
                raise ValueError("incident label mask cache supports <= 63 labels")
            masks = np.zeros(self.num_vertices, dtype=np.int64)
            arc_sources = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
            )
            np.bitwise_or.at(masks, arc_sources, np_label_bits(self.edge_labels))
            if self.directed:
                # Incidence for directed graphs counts in-arcs as well.
                np.bitwise_or.at(
                    masks,
                    self.neighbors.astype(np.int64),
                    np_label_bits(self.edge_labels),
                )
            self._incident_label_masks = masks
        return self._incident_label_masks

    def label_frequencies(self) -> np.ndarray:
        """Number of edges per label (length ``num_labels``)."""
        counts = np.bincount(self.edge_labels, minlength=self.num_labels)
        return counts if self.directed else counts // 2

    def mask(self, labels: Iterable) -> int:
        """Convert label names (if a universe is attached) or ids to a mask."""
        labels = list(labels)
        if self.label_universe is not None and labels and isinstance(labels[0], str):
            return self.label_universe.mask(labels)
        return mask_from_labels(labels)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph_by_mask(self, mask: int) -> "EdgeLabeledGraph":
        """The graph restricted to edges whose label lies in ``mask``.

        This is the object the exact LC-PPSPD definition works on; oracles
        never materialize it (they filter during traversal) but the exact
        baseline and several tests do.
        """
        keep = (np_label_bits(self.edge_labels) & mask) != 0
        arc_sources = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )
        sources = arc_sources[keep]
        targets = self.neighbors[keep]
        labels = self.edge_labels[keep]
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, sources + 1, 1)
        np.cumsum(indptr, out=indptr)
        num_edges = len(targets) if self.directed else len(targets) // 2
        return EdgeLabeledGraph(
            indptr,
            targets.copy(),
            labels.copy(),
            num_labels=self.num_labels,
            directed=self.directed,
            label_universe=self.label_universe,
            num_edges=num_edges,
        )

    def reversed(self) -> "EdgeLabeledGraph":
        """Reverse of a directed graph (returns self for undirected ones).

        Cached: traversals that need in-arcs (the wave-batched PowCov
        builder, the bit-parallel batched BFS) call this once per sweep.
        """
        if not self.directed:
            return self
        if self._reversed is not None:
            return self._reversed
        arc_sources = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )
        order = np.argsort(self.neighbors, kind="stable")
        sources = self.neighbors[order].astype(np.int64)
        targets = arc_sources[order].astype(np.int32)
        labels = self.edge_labels[order]
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, sources + 1, 1)
        np.cumsum(indptr, out=indptr)
        self._reversed = EdgeLabeledGraph(
            indptr,
            targets,
            labels.copy(),
            num_labels=self.num_labels,
            directed=True,
            label_universe=self.label_universe,
            num_edges=self._num_edges,
        )
        return self._reversed

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"EdgeLabeledGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"labels={self.num_labels}, {kind})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeLabeledGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.num_labels == other.num_labels
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.neighbors, other.neighbors)
            and np.array_equal(self.edge_labels, other.edge_labels)
        )

    def __hash__(self) -> int:
        # Instances are never mutated in place (mutation mints a new
        # version via ``apply_delta``), so identity hashing stays sound.
        return id(self)
