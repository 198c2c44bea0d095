"""Edge-case hardening tests across the whole stack."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    ChromLandIndex,
    ExactOracle,
    NaivePowersetIndex,
    PowCovIndex,
)
from repro.graph.builder import GraphBuilder
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.traversal import (
    bidirectional_constrained_bfs,
    constrained_bfs,
    estimate_diameter,
    monochromatic_sp_labels,
)


def single_edge_graph() -> EdgeLabeledGraph:
    return EdgeLabeledGraph.from_edges(2, [(0, 1, 0)], num_labels=1)


class TestTinyGraphs:
    def test_single_edge_everything(self):
        g = single_edge_graph()
        assert bidirectional_constrained_bfs(g, 0, 1, 1) == 1.0
        index = PowCovIndex(g, [0]).build()
        assert index.query(0, 1, 1) == 1.0
        chrom = ChromLandIndex(g, [0], [0]).build()
        assert chrom.query(0, 1, 1) == 2.0 or chrom.query(0, 1, 1) == 1.0

    def test_two_isolated_vertices(self):
        g = EdgeLabeledGraph.from_edges(2, [], num_labels=1)
        assert math.isinf(bidirectional_constrained_bfs(g, 0, 1, 1))
        assert estimate_diameter(g) == 0
        # Landmark with no incident edges: empty index, still answers.
        index = PowCovIndex(g, [0]).build()
        assert math.isinf(index.query(0, 1, 1))
        assert index.index_size_entries() == 0

    def test_singleton_graph(self):
        g = EdgeLabeledGraph.from_edges(1, [], num_labels=1)
        assert constrained_bfs(g, 0, 1).tolist() == [0]
        assert monochromatic_sp_labels(g, 0).tolist() == [1]

    def test_all_vertices_as_landmarks(self):
        g = EdgeLabeledGraph.from_edges(
            4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)], num_labels=2
        )
        index = PowCovIndex(g, [0, 1, 2, 3]).build()
        exact = ExactOracle(g)
        for s in range(4):
            for t in range(4):
                for mask in (1, 2, 3):
                    assert index.query(s, t, mask) == exact.query(s, t, mask)


class TestHighLabelCounts:
    def test_many_labels_traversal(self):
        """The substrate handles |L| near the mask-cache limit."""
        num_labels = 40
        edges = [(i, i + 1, i % num_labels) for i in range(50)]
        g = EdgeLabeledGraph.from_edges(51, edges, num_labels=num_labels)
        full = (1 << num_labels) - 1
        assert bidirectional_constrained_bfs(g, 0, 50, full) == 50.0
        # constraint missing label 5 cuts the line at edge 5
        cut = full ^ (1 << 5)
        assert math.isinf(bidirectional_constrained_bfs(g, 0, 50, cut))
        assert bidirectional_constrained_bfs(g, 0, 5, cut) == 5.0

    def test_chromland_many_labels(self):
        num_labels = 30
        edges = [(i, i + 1, i % num_labels) for i in range(40)]
        g = EdgeLabeledGraph.from_edges(41, edges, num_labels=num_labels)
        index = ChromLandIndex(g, [10, 20], [10 % num_labels, 19]).build()
        assert index.num_landmarks == 2

    def test_naive_refuses_wide_graphs(self):
        edges = [(i, i + 1, i % 20) for i in range(25)]
        g = EdgeLabeledGraph.from_edges(26, edges, num_labels=20)
        with pytest.raises(ValueError, match="exponential"):
            NaivePowersetIndex(g, [0])


class TestBuilderPathological:
    def test_vertex_named_like_int(self):
        builder = GraphBuilder()
        builder.add_edge("0", "1", "l")
        builder.add_edge(0, 1, "l")  # distinct names: "0" != 0
        g = builder.build()
        assert g.num_vertices == 4

    def test_very_dense_small_graph(self):
        builder = GraphBuilder()
        for i in range(8):
            for j in range(i + 1, 8):
                builder.add_edge(i, j, (i + j) % 3)
        g = builder.build()
        assert g.num_edges == 28
        exact = ExactOracle(g)
        assert exact.query(0, 7, 0b111) == 1.0


class TestLargeMaskSafety:
    def test_mask_beyond_labels_is_harmless(self):
        """Bits above num_labels never give a wrong answer: the traversal
        ignores them, and an oracle rejects the query as out of domain."""
        g = single_edge_graph()
        assert bidirectional_constrained_bfs(g, 0, 1, 0b1111) == 1.0
        index = PowCovIndex(g, [0]).build()
        with pytest.raises(ValueError, match="domain"):
            index.query(0, 1, 0b1111)

    def test_unreachable_answer_consistency(self):
        g = EdgeLabeledGraph.from_edges(
            4, [(0, 1, 0), (2, 3, 1)], num_labels=2
        )
        exact = ExactOracle(g)
        index = PowCovIndex(g, [0, 2]).build()
        chrom = ChromLandIndex(g, [0, 2], [0, 1]).build()
        for mask in (1, 2, 3):
            for s, t in ((0, 2), (1, 3), (0, 3)):
                assert math.isinf(exact.query(s, t, mask))
                assert math.isinf(index.query(s, t, mask))
                assert math.isinf(chrom.query(s, t, mask))
