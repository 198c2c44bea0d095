"""Tests for the wave-batched TraversePowerset builder.

The contract under test is *bit-identity*: the wave builder must produce
exactly the entries of the scalar ``traverse_powerset`` and of
``brute_force_sp_minimal``, and the pruning counters of
``traverse_powerset(..., use_obs4=False)``, on undirected and directed
graphs, and through ``PowCovIndex`` serially and on worker threads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.powcov import (
    PowCovIndex,
    get_default_builder,
    traverse_powerset_waves,
    wave_schedule,
)
from repro.core.powcov.spminimal import (
    brute_force_sp_minimal,
    traverse_powerset,
)
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.labelsets import popcount


def directed_random(n=40, m=140, labels=4, seed=0) -> EdgeLabeledGraph:
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((u, v, int(rng.integers(labels))))
    return EdgeLabeledGraph.from_edges(
        n, sorted(edges), num_labels=labels, directed=True
    )


class TestWaveSchedule:
    def test_groups_by_cardinality_ascending(self):
        waves = wave_schedule([0b111, 0b1, 0b11, 0b100, 0b110, 0b101])
        assert waves == [[0b1, 0b100], [0b11, 0b101, 0b110], [0b111]]

    def test_waves_sorted_and_cover_input(self):
        masks = [29, 3, 17, 12, 31, 1, 7]
        waves = wave_schedule(masks)
        sizes = [popcount(w[0]) for w in waves]
        assert sizes == sorted(sizes)
        for wave in waves:
            assert wave == sorted(wave)
            assert len({popcount(m) for m in wave}) == 1
        assert sorted(m for wave in waves for m in wave) == sorted(masks)

    def test_empty(self):
        assert wave_schedule([]) == []


class TestBitIdentity:
    """Wave builder == scalar builder == brute force, entry for entry."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(10, 35), st.integers(10, 70), st.integers(2, 5),
        st.integers(0, 500),
    )
    def test_wave_equals_scalar_and_brute(self, n, m, labels, seed):
        g = labeled_erdos_renyi(n, m, num_labels=labels, seed=seed)
        landmark = seed % n
        wave = traverse_powerset_waves(g, landmark)
        assert wave.entries == traverse_powerset(g, landmark).entries
        assert wave.entries == brute_force_sp_minimal(g, landmark).entries

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 300))
    def test_wave_equals_scalar_directed(self, seed):
        g = directed_random(seed=seed)
        landmark = seed % g.num_vertices
        wave = traverse_powerset_waves(g, landmark)
        assert wave.entries == traverse_powerset(g, landmark).entries

    @pytest.mark.parametrize("seed", range(3))
    def test_counters_match_scalar(self, seed):
        # Not just the entries: the pruning statistics (Table 3's columns)
        # must agree with the scalar builder run as the index runs it,
        # Observations 1-3: the same SSSP and one-removed test counts, and
        # no Observation-4 hits.
        g = labeled_erdos_renyi(32, 85, num_labels=4, seed=seed)
        scalar = traverse_powerset(g, 1, use_obs4=False)
        wave = traverse_powerset_waves(g, 1)
        assert wave.num_sssp == scalar.num_sssp
        assert wave.num_full_tests == scalar.num_full_tests
        assert wave.num_auto_minimal == scalar.num_auto_minimal == 0

    def test_counters_match_scalar_without_obs4(self):
        g = labeled_erdos_renyi(32, 85, num_labels=4, seed=5)
        scalar = traverse_powerset(g, 2, use_obs4=False)
        wave = traverse_powerset_waves(g, 2)
        assert wave.num_sssp == scalar.num_sssp
        assert wave.num_full_tests == scalar.num_full_tests
        assert wave.num_auto_minimal == scalar.num_auto_minimal == 0

    @pytest.mark.parametrize("batch_rows", [1, 2, 3, 7, 1024])
    def test_batch_rows_chunking_is_invisible(self, batch_rows):
        g = labeled_erdos_renyi(28, 70, num_labels=5, seed=4)
        expected = traverse_powerset_waves(g, 0).entries
        got = traverse_powerset_waves(g, 0, batch_rows=batch_rows).entries
        assert got == expected

    def test_batch_rows_must_be_positive(self):
        g = labeled_erdos_renyi(10, 20, num_labels=2, seed=0)
        with pytest.raises(ValueError, match="batch_rows"):
            traverse_powerset_waves(g, 0, batch_rows=0)

    def test_isolated_landmark(self):
        g = EdgeLabeledGraph.from_edges(5, [(1, 2, 0), (2, 3, 1)], num_labels=2)
        result = traverse_powerset_waves(g, 0)
        assert result.entries == traverse_powerset(g, 0).entries == {}


class TestIndexIntegration:
    def test_wave_builders_match_scalar(self):
        graph = labeled_erdos_renyi(32, 80, num_labels=4, seed=8)
        landmarks = [0, 11, 22]
        reference = PowCovIndex(graph, landmarks, builder="traverse").build()
        index = PowCovIndex(graph, landmarks, builder="wave").build()
        assert index.table == reference.table
        for s in range(0, 32, 5):
            for t in range(1, 32, 6):
                for mask in range(1, 16):
                    assert index.query(s, t, mask) == reference.query(
                        s, t, mask
                    ), (s, t, mask)

    @pytest.mark.parametrize("parallel", [2, 3])
    def test_wave_builder_under_parallel_backends(self, parallel):
        graph = labeled_erdos_renyi(30, 75, num_labels=3, seed=12)
        landmarks = [0, 10, 20, 29]
        serial = PowCovIndex(graph, landmarks, builder="wave").build()
        other = PowCovIndex(graph, landmarks, builder="wave").build(
            parallel=parallel
        )
        for s in range(0, 30, 4):
            for t in range(1, 30, 5):
                for mask in range(1, 8):
                    assert other.query(s, t, mask) == serial.query(s, t, mask)


class TestDefaultBuilder:
    def test_default_is_wave(self):
        assert get_default_builder() == "wave"
        # An index constructed with builder=None runs the production builder.
        graph = labeled_erdos_renyi(24, 55, num_labels=3, seed=3)
        assert PowCovIndex(graph, [0, 12]).builder == "wave"

    def test_paper_builder_names_removed(self):
        # Observation 4 is reachable only as the ``use_obs4`` flag of the
        # scalar sweep function, not as a builder name.
        graph = labeled_erdos_renyi(24, 55, num_labels=3, seed=3)
        for name in ("traverse-paper", "wave-paper"):
            with pytest.raises(ValueError, match="builder"):
                PowCovIndex(graph, [0, 12], builder=name)

    def test_rejects_unknown(self):
        graph = labeled_erdos_renyi(24, 55, num_labels=3, seed=3)
        with pytest.raises(ValueError, match="builder"):
            PowCovIndex(graph, [0, 12], builder="psychic")
        assert get_default_builder() == "wave"
