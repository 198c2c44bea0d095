"""Tests for index serialization (save/load without rebuilding)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import load_index, save_index
from repro.core.chromland import ChromLandIndex
from repro.core.powcov import PowCovIndex
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.store import FormatError
from repro.store.index_store import save_graph


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


class TestPowCovRoundtrip:
    def test_queries_identical(self, graph, tmp_path):
        original = PowCovIndex(graph, [0, 13, 26]).build()
        path = tmp_path / "powcov.repro"
        save_index(original, path)
        loaded = load_index(path, graph)
        for s in range(0, 40, 4):
            for t in range(1, 40, 5):
                for mask in range(1, 8):
                    assert loaded.query(s, t, mask) == original.query(s, t, mask)
        assert loaded.index_size_entries() == original.index_size_entries()

    def test_unbuilt_rejected(self, graph, tmp_path):
        with pytest.raises(ValueError, match="build"):
            save_index(PowCovIndex(graph, [0]), tmp_path / "x.repro")

    def test_wrong_graph_rejected(self, graph, tmp_path):
        index = PowCovIndex(graph, [0, 10]).build()
        path = tmp_path / "powcov.repro"
        save_index(index, path)
        other = labeled_erdos_renyi(40, 110, num_labels=3, seed=99)
        with pytest.raises(ValueError, match="different graph"):
            load_index(path, other)

    def test_wrong_kind_rejected(self, graph, tmp_path):
        # A store file of another kind (here: a graph) is not an index.
        path = tmp_path / "g.repro"
        save_graph(graph, path)
        with pytest.raises(FormatError, match="does not hold an index"):
            load_index(path, graph)

    def test_directed_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        edges = {(int(rng.integers(20)), int(rng.integers(20)),
                  int(rng.integers(3))) for _ in range(70)}
        edges = [(u, v, l) for u, v, l in edges if u != v]
        digraph = EdgeLabeledGraph.from_edges(20, edges, num_labels=3,
                                              directed=True)
        original = PowCovIndex(digraph, [0, 7, 14]).build()
        path = tmp_path / "d.repro"
        save_index(original, path)
        loaded = load_index(path, digraph)
        for s in range(0, 20, 2):
            for t in range(1, 20, 3):
                for mask in range(1, 8):
                    assert loaded.query(s, t, mask) == original.query(s, t, mask)


class TestChromLandRoundtrip:
    def test_queries_identical(self, graph, tmp_path):
        original = ChromLandIndex(graph, [0, 10, 20, 30], [0, 1, 2, 0]).build()
        path = tmp_path / "chromland.repro"
        save_index(original, path)
        loaded = load_index(path, graph)
        for s in range(0, 40, 4):
            for t in range(1, 40, 5):
                for mask in range(1, 8):
                    assert loaded.query(s, t, mask) == original.query(s, t, mask)

    def test_query_mode_preserved(self, graph, tmp_path):
        original = ChromLandIndex(graph, [0, 10], [0, 1],
                                  query_mode="simple").build()
        path = tmp_path / "c.repro"
        save_index(original, path)
        assert load_index(path, graph).query_mode == "simple"

    def test_unbuilt_rejected(self, graph, tmp_path):
        with pytest.raises(ValueError, match="build"):
            save_index(ChromLandIndex(graph, [0], [0]), tmp_path / "x.repro")

    def test_wrong_kind_rejected(self, graph, tmp_path):
        # The file, not the caller, decides the index kind.
        index = PowCovIndex(graph, [0]).build()
        path = tmp_path / "p.repro"
        save_index(index, path)
        assert not isinstance(load_index(path, graph), ChromLandIndex)
