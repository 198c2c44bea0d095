"""Tests for graph content fingerprints (``repro.graph.fingerprint``)."""

from __future__ import annotations

import pytest

from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph


@pytest.fixture(scope="module")
def graph():
    return labeled_erdos_renyi(40, 110, num_labels=3, seed=19)


class TestFingerprint:
    def test_stable(self, graph):
        assert graph_fingerprint(graph) == graph_fingerprint(graph)

    def test_memoized_per_instance(self, monkeypatch):
        # The CSR arrays are immutable, so the hash is computed once and
        # cached on the graph; a second call must not touch the arrays.
        from repro.graph import fingerprint

        g = labeled_erdos_renyi(30, 80, num_labels=3, seed=4)
        first = graph_fingerprint(g)
        assert g._fingerprint is not None

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("fingerprint was recomputed")

        monkeypatch.setattr(fingerprint, "_fold_array", boom)
        assert graph_fingerprint(g) == first

    def test_distinguishes_graphs(self, graph):
        other = labeled_erdos_renyi(40, 110, num_labels=3, seed=20)
        assert graph_fingerprint(graph) != graph_fingerprint(other)

    def test_distinguishes_same_counts_different_content(self):
        # Identical n, m, |L| — only the adjacency differs.  The old
        # summary-stat fingerprint could collide here; the CSR content
        # sample must not.
        a = labeled_erdos_renyi(40, 110, num_labels=3, seed=1)
        b = labeled_erdos_renyi(40, 110, num_labels=3, seed=2)
        assert (a.num_vertices, a.num_edges, a.num_labels) == (
            b.num_vertices, b.num_edges, b.num_labels
        )
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_distinguishes_relabeled_edges(self, graph):
        # Same topology, one edge label flipped deep in the arrays —
        # beyond the first-64-entries window the old hash sampled.
        edges = []
        seen = set()
        for u in range(graph.num_vertices):
            for i in range(int(graph.indptr[u]), int(graph.indptr[u + 1])):
                v = int(graph.neighbors[i])
                label = int(graph.edge_labels[i])
                key = (min(u, v), max(u, v), label)
                if key not in seen:
                    seen.add(key)
                    edges.append((u, v, label))
        flipped = list(edges)
        u, v, label = flipped[-1]
        flipped[-1] = (u, v, (label + 1) % graph.num_labels)
        base = EdgeLabeledGraph.from_edges(
            graph.num_vertices, edges, num_labels=graph.num_labels
        )
        other = EdgeLabeledGraph.from_edges(
            graph.num_vertices, flipped, num_labels=graph.num_labels
        )
        assert graph_fingerprint(base) != graph_fingerprint(other)
