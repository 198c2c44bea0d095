"""Tests for directed-graph support (the paper's Section 2 remark).

Exactness of the substrate on directed graphs is covered in
test_traversal.py; here we verify the *indexes*: PowCov keeps a reversed
table for vertex→landmark distances, ChromLand keeps ``mono_in``, and both
remain sound upper bounds with no false positives.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.chromland import ChromLandIndex
from repro.core.powcov import PowCovIndex
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.traversal import UNREACHABLE, bidirectional_constrained_bfs, constrained_bfs


def directed_random(n=35, m=140, labels=3, seed=0) -> EdgeLabeledGraph:
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((u, v, int(rng.integers(labels))))
    return EdgeLabeledGraph.from_edges(n, sorted(edges), num_labels=labels,
                                       directed=True)


def exact_directed(graph, s, t, mask) -> float:
    dist = constrained_bfs(graph, s, mask)
    return float(dist[t]) if dist[t] != UNREACHABLE else math.inf


@pytest.fixture(scope="module")
def setup():
    graph = directed_random(seed=3)
    landmarks = [0, 7, 14, 21, 28]
    powcov = PowCovIndex(graph, landmarks).build()
    chroml = ChromLandIndex(graph, landmarks, [0, 1, 2, 0, 1]).build()
    return graph, landmarks, powcov, chroml


class TestDirectedPowCov:
    def test_reverse_table_holds_vertex_to_landmark_entries(self, setup):
        graph, landmarks, powcov, _ = setup
        reverse = PowCovIndex(graph.reversed(), landmarks).build()
        assert powcov.reverse_table == reverse.table

    def test_landmark_distance_both_directions(self, setup):
        graph, landmarks, powcov, _ = setup
        reversed_graph = graph.reversed()
        for i, x in enumerate(landmarks):
            for mask in (1, 3, 7):
                fwd = constrained_bfs(graph, x, mask)
                bwd = constrained_bfs(reversed_graph, x, mask)
                for u in range(0, graph.num_vertices, 4):
                    want_fwd = float(fwd[u]) if fwd[u] != UNREACHABLE else math.inf
                    want_bwd = float(bwd[u]) if bwd[u] != UNREACHABLE else math.inf
                    assert powcov.landmark_distance(i, u, mask) == want_fwd
                    assert powcov.landmark_distance(
                        i, u, mask, direction="to-landmark"
                    ) == want_bwd

    def test_upper_bound_and_no_false_positives(self, setup):
        graph, _, powcov, _ = setup
        for s in range(0, graph.num_vertices, 3):
            for t in range(1, graph.num_vertices, 4):
                if s == t:
                    continue
                for mask in range(1, 8):
                    exact = exact_directed(graph, s, t, mask)
                    answer = powcov.query_answer(s, t, mask)
                    if math.isinf(exact):
                        assert math.isinf(answer.estimate)
                    else:
                        assert answer.estimate >= exact
                        assert answer.lower <= exact

    def test_exact_through_landmark(self, setup):
        graph, landmarks, powcov, _ = setup
        s = landmarks[2]
        for t in range(0, graph.num_vertices, 5):
            if t == s:
                continue
            for mask in (3, 7):
                assert powcov.query(s, t, mask) == exact_directed(graph, s, t, mask)

    def test_asymmetry_respected(self, setup):
        """d(s,t) and d(t,s) differ on directed graphs; so must estimates."""
        graph, _, powcov, _ = setup
        asymmetric = 0
        for s in range(0, 30, 2):
            for t in range(1, 30, 3):
                a = powcov.query(s, t, 7)
                b = powcov.query(t, s, 7)
                if a != b:
                    asymmetric += 1
        assert asymmetric > 0

    def test_size_accounting_includes_reverse(self, setup):
        graph, landmarks, powcov, _ = setup
        forward_only = len(powcov.table)
        assert powcov.index_size_entries() > forward_only


class TestDirectedChromLand:
    def test_mono_in_table(self, setup):
        graph, landmarks, _, chroml = setup
        reversed_graph = graph.reversed()
        for i, x in enumerate(landmarks):
            expected = constrained_bfs(reversed_graph, x, 1 << int(chroml.colors[i]))
            assert np.array_equal(chroml.mono_in[i], expected)

    def test_upper_bound_and_no_false_positives(self, setup):
        graph, _, _, chroml = setup
        for s in range(0, graph.num_vertices, 3):
            for t in range(1, graph.num_vertices, 4):
                if s == t:
                    continue
                for mask in range(1, 8):
                    exact = exact_directed(graph, s, t, mask)
                    estimate = chroml.query(s, t, mask)
                    if math.isinf(exact):
                        assert math.isinf(estimate)
                    else:
                        assert estimate >= exact

    def test_directed_chain_composition(self):
        """s -a-> x -a-> y -b-> t answered via two landmarks, directed."""
        g = EdgeLabeledGraph.from_edges(
            4, [(0, 1, 0), (1, 2, 0), (2, 3, 1)], num_labels=2, directed=True
        )
        index = ChromLandIndex(g, [1, 2], [0, 1]).build()
        assert index.query(0, 3, 0b11) == 3.0
        # The reverse direction has no path at all.
        assert math.isinf(index.query(3, 0, 0b11))

    def test_bidirectional_bfs_agrees(self, setup):
        graph, _, _, _ = setup
        for s in range(0, 30, 7):
            for t in range(1, 30, 6):
                for mask in (1, 5, 7):
                    assert bidirectional_constrained_bfs(graph, s, t, mask) == (
                        exact_directed(graph, s, t, mask)
                    )
