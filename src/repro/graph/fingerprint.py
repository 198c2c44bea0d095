"""Graph fingerprints: content hashes and delta-lineage hashes.

Two kinds of fingerprint identify a graph version:

* **Content fingerprint** (:func:`graph_fingerprint` on a graph built from
  scratch): an FNV-1a fold of the summary counts plus a strided sample of
  the CSR arrays.  Two independently constructed graphs with the same
  content hash the same.
* **Lineage fingerprint** (set by :func:`repro.graph.delta.apply_delta`):
  ``fold(parent_fingerprint, delta)`` computed in ``O(|delta|)`` without
  rehashing the CSR arrays.  Two graphs reached from the same parent by
  the same delta hash the same — which is what the fingerprint-addressed
  caches need for temporal replays — but a delta-derived graph does *not*
  hash equal to the same content built from scratch.  The fingerprint
  identifies a *version*, not a canonical content encoding.

Both kinds live in the same 63-bit space and are memoized on
``graph._fingerprint``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .delta import GraphDelta
    from .labeled_graph import EdgeLabeledGraph

__all__ = ["graph_fingerprint", "delta_fingerprint"]

_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211
#: at most this many strided samples are folded in per CSR array.
_FINGERPRINT_SAMPLES = 1024


def _fold(acc: int, value: int) -> int:
    return ((acc ^ (int(value) & ((1 << 64) - 1))) * _FNV_PRIME) % (1 << 63)


def _fold_array(acc: int, array: np.ndarray) -> int:
    """FNV-fold a strided content sample of ``array`` into ``acc``.

    Up to :data:`_FINGERPRINT_SAMPLES` evenly spaced elements (always
    including the first and last) are hashed individually, so two graphs
    with identical summary counts but different adjacency or labeling
    content fingerprint differently — a pure checksum-of-sums would let
    permuted arrays collide.
    """
    n = len(array)
    acc = _fold(acc, n)
    if n == 0:
        return acc
    stride = max(1, n // _FINGERPRINT_SAMPLES)
    sample = array[::stride]
    for value in np.asarray(sample, dtype=np.int64).tolist():
        acc = _fold(acc, value)
    return _fold(acc, int(array[-1]))


def graph_fingerprint(graph: EdgeLabeledGraph) -> np.int64:
    """Fingerprint binding an index file or cache entry to its graph.

    For a graph built from scratch this folds the summary counts *and* a
    strided FNV sample of the CSR arrays (``indptr``, ``neighbors``,
    ``edge_labels``), so graphs that merely share sizes — or permute
    edges/labels — are told apart.  For a graph produced by
    :func:`repro.graph.delta.apply_delta` the memoized value is the
    incrementally computed lineage fingerprint (see the module docstring).

    Memoized per graph instance (the CSR arrays are never mutated in
    place), so repeated saves/loads against the same graph hash it once.
    """
    if graph._fingerprint is not None:
        return graph._fingerprint
    acc = _FNV_OFFSET
    for value in (
        graph.num_vertices,
        graph.num_edges,
        graph.num_labels,
        int(graph.directed),
        int(graph.indptr[-1]),
    ):
        acc = _fold(acc, value)
    acc = _fold_array(acc, graph.indptr)
    acc = _fold_array(acc, graph.neighbors)
    acc = _fold_array(acc, graph.edge_labels)
    graph._fingerprint = np.int64(acc)
    return graph._fingerprint


def delta_fingerprint(parent_fingerprint: np.int64, delta: GraphDelta) -> np.int64:
    """Lineage hash of ``parent + delta``, computed in ``O(|delta|)``.

    Deterministic in the delta's canonical op order, so replaying the same
    delta against the same parent always lands on the same version id —
    the property the fingerprint-addressed :class:`repro.store.cache
    .IndexStore` and the session answer cache rely on.
    """
    acc = _fold(_FNV_OFFSET, int(parent_fingerprint))
    for tag, ops in ((1, delta.insertions), (2, delta.deletions)):
        acc = _fold(acc, tag)
        acc = _fold(acc, len(ops))
        for u, v, label in ops:
            acc = _fold(acc, u)
            acc = _fold(acc, v)
            acc = _fold(acc, label)
    acc = _fold(acc, 3)
    acc = _fold(acc, len(delta.relabels))
    for u, v, old_label, new_label in delta.relabels:
        acc = _fold(acc, u)
        acc = _fold(acc, v)
        acc = _fold(acc, old_label)
        acc = _fold(acc, new_label)
    return np.int64(acc)
