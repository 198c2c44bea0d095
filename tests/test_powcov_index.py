"""Tests for the PowCov index: Theorem 1 reconstruction + query bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.powcov import PowCovIndex
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.traversal import UNREACHABLE, constrained_bfs

from conftest import all_pairs_all_masks, exact_constrained_distance


@pytest.fixture(scope="module")
def built_index():
    graph = labeled_erdos_renyi(45, 110, num_labels=3, seed=21)
    landmarks = [0, 9, 18, 27, 36]
    return graph, landmarks, PowCovIndex(graph, landmarks).build()


class TestConstruction:
    def test_duplicate_landmarks_rejected(self, random_graph):
        with pytest.raises(ValueError, match="distinct"):
            PowCovIndex(random_graph, [1, 1, 2])

    def test_out_of_range_landmark(self, random_graph):
        with pytest.raises(ValueError, match="out of range"):
            PowCovIndex(random_graph, [random_graph.num_vertices])

    def test_bad_builder(self, random_graph):
        with pytest.raises(ValueError, match="builder"):
            PowCovIndex(random_graph, [0], builder="magic")

    def test_bad_storage(self, random_graph):
        # The storage knob is gone: the sorted table is the only layout,
        # and a leftover ``storage=`` argument fails loudly.
        with pytest.raises(TypeError, match="storage"):
            PowCovIndex(random_graph, [0], storage="flat")

    def test_bad_estimator(self, random_graph):
        with pytest.raises(ValueError, match="estimator"):
            PowCovIndex(random_graph, [0], estimator="mean")

    def test_query_before_build(self, random_graph):
        index = PowCovIndex(random_graph, [0])
        with pytest.raises(RuntimeError, match="build"):
            index.query(0, 1, 1)

    def test_describe(self, built_index):
        _, _, index = built_index
        assert "powcov" in index.describe()


class TestTheorem1Reconstruction:
    """Stored SP-minimal sets reconstruct exact landmark distances."""

    def test_exhaustive(self, built_index):
        graph, landmarks, index = built_index
        for i, x in enumerate(landmarks):
            for mask in range(1, 1 << graph.num_labels):
                exact = constrained_bfs(graph, x, mask)
                for u in range(graph.num_vertices):
                    expected = (
                        float(exact[u]) if exact[u] != UNREACHABLE else math.inf
                    )
                    assert index.landmark_distance(i, u, mask) == expected, (
                        x, u, mask,
                    )

    def test_landmark_to_itself(self, built_index):
        _, landmarks, index = built_index
        for i in range(len(landmarks)):
            assert index.landmark_distance(i, landmarks[i], 1) == 0.0


class TestQueryBounds:
    def test_sandwich(self, built_index):
        """lower <= exact <= estimate for every finite query."""
        graph, _, index = built_index
        for s, t, mask, exact in all_pairs_all_masks(graph):
            if s == t:
                continue
            answer = index.query_answer(s, t, mask)
            if math.isinf(exact):
                assert math.isinf(answer.estimate)  # no false positives
            else:
                assert answer.estimate >= exact
                assert answer.lower <= exact

    def test_same_vertex(self, built_index):
        _, _, index = built_index
        assert index.query(7, 7, 1) == 0.0

    def test_empty_mask(self, built_index):
        _, _, index = built_index
        assert math.isinf(index.query(0, 1, 0))

    def test_query_through_landmark_is_exact(self, built_index):
        """If s is itself a landmark, the estimate equals the exact distance."""
        graph, landmarks, index = built_index
        s = landmarks[0]
        for t in range(graph.num_vertices):
            if t == s:
                continue
            for mask in (1, 3, 7):
                exact = exact_constrained_distance(graph, s, t, mask)
                assert index.query(s, t, mask) == exact


class TestStorageVariants:
    def test_landmark_rows_match_landmark_distance(self):
        # The vectorized probe and the scalar first-subset scan read the
        # same table; every (landmark, vertex, mask) must agree.
        graph = labeled_erdos_renyi(30, 80, num_labels=3, seed=9)
        landmarks = [0, 15, 29]
        index = PowCovIndex(graph, landmarks).build()
        vertices = np.arange(30)
        for mask in range(8):
            rows = index.landmark_rows(vertices, mask)
            for i in range(3):
                for u in range(30):
                    assert rows[u, i] == index.landmark_distance(i, u, mask)

    @pytest.mark.parametrize("estimator", ["upper", "median"])
    def test_query_answer_matches_landmark_loop(self, estimator):
        # Reference: the triangle bounds spelled out landmark by landmark
        # over the scalar Theorem 1 reconstruction.
        graph = labeled_erdos_renyi(35, 90, num_labels=4, seed=5)
        landmarks = [0, 10, 20, 30]
        index = PowCovIndex(graph, landmarks, estimator=estimator).build()
        for s in range(0, 35, 3):
            for t in range(1, 35, 4):
                if s == t:
                    continue
                for mask in range(1, 16):
                    sums, gaps = [], []
                    for i in range(len(landmarks)):
                        ds = index.landmark_distance(i, s, mask)
                        dt = index.landmark_distance(i, t, mask)
                        if ds != math.inf and dt != math.inf:
                            sums.append(ds + dt)
                            gaps.append(abs(ds - dt))
                    answer = index.query_answer(s, t, mask)
                    if not sums:
                        assert answer.estimate == answer.upper == math.inf
                        continue
                    assert answer.upper == min(sums)
                    assert answer.lower == max(gaps)
                    expected = (
                        sorted(sums)[len(sums) // 2]
                        if estimator == "median" else min(sums)
                    )
                    assert answer.estimate == expected

    def test_table_is_the_landmark_blocks_in_order(self):
        from repro.core.powcov import traverse_powerset
        from repro.core.powcov.table import PowCovTable

        graph = labeled_erdos_renyi(30, 80, num_labels=3, seed=2)
        landmarks = [7, 3, 22]
        index = PowCovIndex(graph, landmarks).build()
        blocks = [traverse_powerset(graph, x).arrays for x in landmarks]
        assert index.table == PowCovTable.from_landmarks(blocks, 30)
        assert np.all(np.diff(index.table.key) >= 0)
        for i, block in enumerate(blocks):
            for column, want in zip(index.table.landmark_slice(i), block):
                assert np.array_equal(column, want)

    def test_builders_match(self):
        graph = labeled_erdos_renyi(30, 70, num_labels=3, seed=6)
        landmarks = [0, 15]
        results = {}
        for builder in ("wave", "traverse", "brute"):
            index = PowCovIndex(graph, landmarks, builder=builder).build()
            results[builder] = [
                index.query(s, t, m)
                for s in range(0, 30, 5)
                for t in range(1, 30, 7)
                for m in range(1, 8)
            ]
        assert results["traverse"] == results["brute"]
        assert results["traverse"] == results["wave"]

    def test_median_estimator_between_bounds(self):
        graph = labeled_erdos_renyi(40, 120, num_labels=3, seed=7)
        landmarks = list(range(0, 40, 5))
        upper = PowCovIndex(graph, landmarks, estimator="upper").build()
        median = PowCovIndex(graph, landmarks, estimator="median").build()
        for s in range(0, 40, 7):
            for t in range(1, 40, 6):
                for mask in (1, 3, 7):
                    mu = upper.query_answer(s, t, mask)
                    mm = median.query_answer(s, t, mask)
                    if math.isinf(mu.upper):
                        assert math.isinf(mm.estimate)
                    else:
                        assert mm.estimate >= mu.upper  # median >= min


class TestSizeAccounting:
    def test_counts_consistent(self, built_index):
        _, _, index = built_index
        assert index.index_size_entries() > 0
        assert index.reachable_pairs() > 0
        avg = index.average_entries_per_pair()
        assert avg == pytest.approx(
            index.index_size_entries() / index.reachable_pairs()
        )
        assert index.max_entries_per_pair() >= math.ceil(avg)
