"""Tests for the evaluation metrics and oracle protocol types."""

from __future__ import annotations


import pytest

from repro.core.exact import ExactDijkstraOracle, ExactOracle
from repro.core.types import INF, DistanceOracle, Query, QueryAnswer
from repro.eval.metrics import evaluate_oracle, time_oracle
from repro.graph.generators import labeled_erdos_renyi
from repro.workloads import generate_workload


@pytest.fixture(scope="module")
def setup():
    graph = labeled_erdos_renyi(50, 160, num_labels=3, seed=4)
    workload = generate_workload(graph, num_pairs=25, seed=2)
    return graph, workload


class _ConstantOffsetOracle(DistanceOracle):
    """Test double: exact + fixed offset, infinite on marked queries."""

    name = "offset"

    def __init__(self, graph, offset: float, infinite_every: int = 0):
        super().__init__(graph)
        self._exact = ExactOracle(graph)
        self.offset = offset
        self.infinite_every = infinite_every
        self._count = 0

    def _query(self, source, target, label_mask):
        self._count += 1
        if self.infinite_every and self._count % self.infinite_every == 0:
            return INF
        return self._exact.query(source, target, label_mask) + self.offset


class TestEvaluateOracle:
    def test_exact_oracle_perfect_scores(self, setup):
        graph, workload = setup
        metrics = evaluate_oracle(ExactOracle(graph), workload)
        assert metrics.absolute_error == 0.0
        assert metrics.relative_error == 0.0
        assert metrics.exact_fraction == 1.0
        assert metrics.false_negative_fraction == 0.0
        assert metrics.mean_query_seconds > 0
        assert metrics.num_queries == len(workload)

    def test_offset_oracle_errors(self, setup):
        graph, workload = setup
        metrics = evaluate_oracle(_ConstantOffsetOracle(graph, 2.0), workload)
        assert metrics.absolute_error == pytest.approx(2.0)
        assert metrics.exact_fraction == 0.0
        assert metrics.relative_error > 0

    def test_false_negative_accounting(self, setup):
        graph, workload = setup
        oracle = _ConstantOffsetOracle(graph, 0.0, infinite_every=5)
        metrics = evaluate_oracle(oracle, workload)
        assert metrics.false_negative_fraction == pytest.approx(
            (len(workload) // 5) / len(workload)
        )
        assert metrics.false_negative_percent == pytest.approx(
            100 * metrics.false_negative_fraction
        )

    def test_underestimate_is_a_bug(self, setup):
        graph, workload = setup
        with pytest.raises(AssertionError, match="returned"):
            evaluate_oracle(_ConstantOffsetOracle(graph, -1.0), workload)

    def test_empty_workload(self, setup):
        graph, workload = setup
        from repro.workloads.queries import Workload
        with pytest.raises(ValueError):
            evaluate_oracle(ExactOracle(graph), Workload(graph=graph))

    def test_time_oracle(self, setup):
        graph, workload = setup
        per_query = time_oracle(ExactOracle(graph), workload, limit=10)
        assert per_query > 0

    def test_time_queries_false_skips_timing_pass(self, setup):
        graph, workload = setup
        oracle = _ConstantOffsetOracle(graph, 0.0)
        metrics = evaluate_oracle(oracle, workload, time_queries=False)
        assert metrics.mean_query_seconds == 0.0
        # one accounting pass only — no hidden timing pass ran
        assert oracle._count == len(workload)


class TestTypes:
    def test_query_of_with_label_names(self, setup):
        graph, _ = setup
        query = Query.of(graph, 0, 1, [0, 2])
        assert query.label_mask == 0b101

    def test_query_validation(self):
        with pytest.raises(ValueError):
            Query(0, 1, -1)

    def test_query_answer_unreachable(self):
        assert QueryAnswer(estimate=INF).is_unreachable
        assert not QueryAnswer(estimate=3.0).is_unreachable

    def test_default_query_answer_wraps_query(self, setup):
        graph, _ = setup
        oracle = ExactOracle(graph)
        answer = oracle.query_answer(0, 1, 0b111)
        assert answer.estimate == oracle.query(0, 1, 0b111)

    def test_batch_query(self, setup):
        graph, _ = setup
        oracle = ExactOracle(graph)
        queries = [Query(0, 1, 7), Query(1, 2, 7)]
        assert oracle.batch_query(queries) == [
            oracle.query(0, 1, 7), oracle.query(1, 2, 7)
        ]

    def test_query_labels_overload(self, setup):
        graph, _ = setup
        oracle = ExactOracle(graph)
        assert oracle.query_labels(0, 1, [0, 1, 2]) == oracle.query(0, 1, 7)

    def test_index_size_default(self, setup):
        graph, _ = setup
        assert ExactOracle(graph).index_size_entries() == 0

    def test_describe_default(self, setup):
        graph, _ = setup
        assert "exact" in ExactOracle(graph).describe()


class TestExactDijkstraOracle:
    def test_matches_bfs_oracle(self, setup):
        graph, workload = setup
        dijkstra = ExactDijkstraOracle(graph)
        bfs_oracle = ExactOracle(graph)
        for q in workload.queries[:30]:
            assert dijkstra.query(q.source, q.target, q.label_mask) == (
                bfs_oracle.query(q.source, q.target, q.label_mask)
            )

    def test_weighted_oracle(self, setup):
        import numpy as np
        graph, _ = setup
        weights = np.full(graph.num_arcs, 2.0)
        oracle = ExactDijkstraOracle(graph, weights=weights)
        unweighted = ExactOracle(graph)
        assert oracle.query(0, 5, 7) == 2 * unweighted.query(0, 5, 7)

    def test_sssp_helper(self, setup):
        graph, _ = setup
        dist = ExactOracle(graph).sssp(0, 0b111)
        assert dist[0] == 0
