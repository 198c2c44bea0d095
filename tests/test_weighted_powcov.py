"""Tests for the weighted-graph PowCov extension."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.exact import ExactDijkstraOracle
from repro.core.powcov import (
    PowCovIndex,
    WeightedPowCovIndex,
    brute_force_sp_minimal,
    weighted_sp_minimal,
)
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph


def integer_weights(graph, seed=0, low=1, high=5) -> np.ndarray:
    """Symmetric integer arc weights (same weight on both arc directions)."""
    rng = np.random.default_rng(seed)
    weights = np.zeros(graph.num_arcs, dtype=np.float64)
    pair_weight: dict[tuple[int, int, int], float] = {}
    for u in range(graph.num_vertices):
        start, stop = graph.indptr[u], graph.indptr[u + 1]
        for i in range(start, stop):
            v = int(graph.neighbors[i])
            label = int(graph.edge_labels[i])
            key = (min(u, v), max(u, v), label)
            if key not in pair_weight:
                pair_weight[key] = float(rng.integers(low, high + 1))
            weights[i] = pair_weight[key]
    return weights


@pytest.fixture(scope="module")
def weighted_setup():
    graph = labeled_erdos_renyi(35, 90, num_labels=3, seed=12)
    weights = integer_weights(graph, seed=12)
    landmarks = [0, 12, 24]
    index = WeightedPowCovIndex(graph, landmarks, weights).build()
    exact = ExactDijkstraOracle(graph, weights=weights)
    return graph, weights, landmarks, index, exact


class TestWeightedSPMinimal:
    def test_unit_weights_match_unweighted(self):
        graph = labeled_erdos_renyi(30, 70, num_labels=3, seed=4)
        unit = np.ones(graph.num_arcs)
        weighted = weighted_sp_minimal(graph, 0, unit)
        unweighted = brute_force_sp_minimal(graph, 0)
        got = {
            u: [(int(d), m) for d, m in pairs]
            for u, pairs in weighted.entries.items()
        }
        assert got == unweighted.entries

    def test_validation(self):
        graph = labeled_erdos_renyi(20, 40, num_labels=2, seed=1)
        with pytest.raises(ValueError, match="parallel"):
            weighted_sp_minimal(graph, 0, np.ones(3))
        with pytest.raises(ValueError, match="non-negative"):
            weighted_sp_minimal(graph, 0, -np.ones(graph.num_arcs))

    def test_obs1_equivalence(self):
        graph = labeled_erdos_renyi(25, 60, num_labels=3, seed=6)
        weights = integer_weights(graph, seed=6)
        with_obs1 = weighted_sp_minimal(graph, 3, weights, use_obs1=True)
        without = weighted_sp_minimal(graph, 3, weights, use_obs1=False)
        assert with_obs1.entries == without.entries


class TestWeightedIndex:
    def test_landmark_distances_exact(self, weighted_setup):
        graph, weights, landmarks, index, exact = weighted_setup
        for i, x in enumerate(landmarks):
            for u in range(0, graph.num_vertices, 4):
                for mask in range(1, 8):
                    want = exact.query(x, u, mask)
                    assert index.landmark_distance(i, u, mask) == want

    def test_upper_bound_no_false_positives(self, weighted_setup):
        graph, weights, _, index, exact = weighted_setup
        for s in range(0, graph.num_vertices, 3):
            for t in range(1, graph.num_vertices, 4):
                if s == t:
                    continue
                for mask in range(1, 8):
                    truth = exact.query(s, t, mask)
                    estimate = index.query(s, t, mask)
                    if math.isinf(truth):
                        assert math.isinf(estimate)
                    else:
                        assert estimate >= truth - 1e-9

    def test_exact_through_landmark(self, weighted_setup):
        graph, weights, landmarks, index, exact = weighted_setup
        s = landmarks[1]
        for t in range(0, graph.num_vertices, 5):
            if t == s:
                continue
            assert index.query(s, t, 0b111) == exact.query(s, t, 0b111)

    def test_directed_rejected(self):
        graph = EdgeLabeledGraph.from_edges(
            3, [(0, 1, 0), (1, 2, 0)], directed=True
        )
        with pytest.raises(ValueError, match="undirected"):
            WeightedPowCovIndex(graph, [0], np.ones(graph.num_arcs))

    def test_weights_length_validated(self):
        graph = labeled_erdos_renyi(10, 20, num_labels=2, seed=0)
        with pytest.raises(ValueError, match="parallel"):
            WeightedPowCovIndex(graph, [0], np.ones(3))

    def test_store_opened_index_refuses_repair(self, weighted_setup, tmp_path):
        # The store file keeps the table, not the arc weights: repairing
        # an opened weighted index would silently rebuild it unweighted.
        from repro.core.dynamic import repair_index
        from repro.graph.delta import GraphDelta, apply_delta
        from repro.store.index_store import open_index, save_index

        graph, _weights, _landmarks, index, _exact = weighted_setup
        save_index(index, tmp_path / "w.repro")
        opened = open_index(tmp_path / "w.repro", graph)
        edge = (0, int(graph.neighbors_of(0)[0]), int(graph.labels_of(0)[0]))
        new_graph = apply_delta(graph, GraphDelta(deletions=(edge,)))
        with pytest.raises(ValueError, match="arc weights"):
            repair_index(opened, new_graph)
