"""Tests for the serving-side query-stream generators."""

from __future__ import annotations

import pytest

from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.labelsets import full_mask, popcount
from repro.graph.traversal import bidirectional_constrained_bfs
from repro.workloads.streams import (
    StreamReport,
    fixed_context_stream,
    locality_biased_stream,
    mixed_update_stream,
    run_stream_throughput,
    size_skewed_stream,
)


@pytest.fixture(scope="module")
def graph():
    return labeled_erdos_renyi(80, 280, num_labels=5, seed=9)


def assert_masks_valid(graph, stream):
    """Every stream mask is non-empty and within the label universe."""
    top = full_mask(graph.num_labels)
    for _, _, mask in stream:
        assert 0 < mask <= top


class TestSizeSkewed:
    def test_count_and_ranges(self, graph):
        stream = size_skewed_stream(graph, 200, seed=1)
        assert len(stream) == 200
        for s, t, mask in stream:
            assert 0 <= s < graph.num_vertices
            assert 0 <= t < graph.num_vertices
            assert 1 <= popcount(mask) <= graph.num_labels
        assert_masks_valid(graph, stream)

    def test_small_sets_dominate(self, graph):
        stream = size_skewed_stream(graph, 500, seed=2)
        sizes = [popcount(mask) for _, _, mask in stream]
        assert sizes.count(1) > sizes.count(4)

    def test_deterministic(self, graph):
        assert size_skewed_stream(graph, 50, seed=3) == size_skewed_stream(
            graph, 50, seed=3
        )

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            size_skewed_stream(graph, 0)
        with pytest.raises(ValueError):
            size_skewed_stream(graph, 10, success_probability=1.5)


class TestLocalityBiased:
    def test_pairs_within_radius(self, graph):
        stream = locality_biased_stream(graph, 60, radius=3, seed=4)
        assert len(stream) == 60
        assert_masks_valid(graph, stream)
        for s, t, mask in stream:
            d = bidirectional_constrained_bfs(graph, s, t, mask)
            assert d <= 2 * 3  # both endpoints in one radius-3 ball

    def test_deterministic(self, graph):
        assert locality_biased_stream(graph, 30, seed=6) == (
            locality_biased_stream(graph, 30, seed=6)
        )

    def test_edgeless_graph_raises(self):
        g = EdgeLabeledGraph.from_edges(50, [], num_labels=1)
        with pytest.raises(RuntimeError):
            locality_biased_stream(g, 10, radius=1, seed=0)

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            locality_biased_stream(graph, 0)
        with pytest.raises(ValueError):
            locality_biased_stream(graph, 10, radius=0)


class TestFixedContext:
    def test_lazy_and_fixed(self, graph):
        stream = fixed_context_stream(graph, 0b101, 40, seed=5)
        items = list(stream)
        assert len(items) == 40
        assert all(mask == 0b101 for _, _, mask in items)
        assert_masks_valid(graph, items)

    def test_deterministic(self, graph):
        assert list(fixed_context_stream(graph, 0b11, 25, seed=8)) == (
            list(fixed_context_stream(graph, 0b11, 25, seed=8))
        )

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            list(fixed_context_stream(graph, 0, 10))
        with pytest.raises(ValueError):
            list(fixed_context_stream(graph, 1, 0))


class TestStreamThroughput:
    @pytest.fixture(scope="class")
    def index(self, graph):
        from repro.core.powcov import PowCovIndex

        return PowCovIndex(graph, [0, 20, 40, 60]).build()

    def test_answers_match_scalar_loop(self, graph, index):
        stream = size_skewed_stream(graph, 150, seed=3)
        answers, report = run_stream_throughput(index, stream, batch_size=32)
        assert answers == [index.query(s, t, m) for s, t, m in stream]
        assert isinstance(report, StreamReport)
        assert report.num_queries == len(stream)
        assert report.elapsed_seconds > 0
        assert report.queries_per_second > 0
        assert report.cache_hits + report.cache_misses == len(stream)
        assert report.masks_planned > 0

    def test_warm_session_replay_hits_cache(self, graph, index):
        from repro.engine import QuerySession

        stream = size_skewed_stream(graph, 100, seed=4)
        session = QuerySession(index, cache_size=4096)
        run_stream_throughput(index, stream, session=session)
        _, warm = run_stream_throughput(index, stream, session=session)
        assert warm.cache_hits == len(stream)
        assert warm.cache_misses == 0
        assert warm.hit_rate == 1.0
        assert warm.masks_planned == 0

    def test_describe_mentions_throughput(self, graph, index):
        _, report = run_stream_throughput(
            index, size_skewed_stream(graph, 20, seed=5)
        )
        assert "q/s" in report.describe()

    def test_queries_counts_each_logical_query_once(self, graph, index):
        """Regression: the global ``engine.queries`` aggregate used to
        double-count stream queries, when a session's cumulative counters
        were merged into the registry on every publish.  Sessions now count
        into the registry as they run, so it holds exactly the stream
        length, and a warm replay adds exactly one more."""
        from repro.engine import QuerySession
        from repro.obs.metrics import registry

        stream = size_skewed_stream(graph, 100, seed=6)
        registry().reset(prefix="engine.")
        session = QuerySession(index, cache_size=4096)
        run_stream_throughput(index, stream, session=session)
        assert registry().counter("engine.queries").value == len(stream)

        # A warm replay through the same session: every query still counts
        # (cache hits are logical queries too), exactly once.
        run_stream_throughput(index, stream, session=session)
        assert registry().counter("engine.queries").value == 2 * len(stream)
        registry().reset(prefix="engine.")


class TestMixedUpdateStream:
    def test_shape_and_determinism(self, graph):
        from repro.graph.delta import GraphDelta

        stream = list(mixed_update_stream(graph, 60, num_updates=5, seed=1))
        queries = [item for item in stream if isinstance(item, tuple)]
        deltas = [item for item in stream if isinstance(item, GraphDelta)]
        assert len(queries) == 60
        assert 0 < len(deltas) <= 5
        assert all(d.num_ops == 1 for d in deltas)
        assert_masks_valid(graph, queries)
        again = list(mixed_update_stream(graph, 60, num_updates=5, seed=1))
        assert stream == again

    def test_zero_updates_is_pure_query_stream(self, graph):
        stream = list(mixed_update_stream(graph, 25, num_updates=0, seed=2))
        assert len(stream) == 25
        assert all(isinstance(item, tuple) for item in stream)

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            list(mixed_update_stream(graph, 0, num_updates=1))
        with pytest.raises(ValueError):
            list(mixed_update_stream(graph, 10, num_updates=-1))

    def test_throughput_answers_match_per_state_rebuilds(self):
        from repro.core.powcov import PowCovIndex
        from repro.graph.delta import GraphDelta, apply_delta
        from repro.graph.generators import labeled_erdos_renyi

        small = labeled_erdos_renyi(30, 70, num_labels=3, seed=21)
        index = PowCovIndex(small, [0, 7, 14]).build()
        stream = list(mixed_update_stream(small, 40, num_updates=4, seed=3))
        answers, report = run_stream_throughput(index, stream)

        # Replay: answer each query against a fresh build on the graph
        # state current at that point in the stream.
        state = small
        reference = PowCovIndex(state, [0, 7, 14]).build()
        expected = []
        for item in stream:
            if isinstance(item, GraphDelta):
                state = apply_delta(state, item)
                reference = PowCovIndex(state, [0, 7, 14]).build()
            else:
                s, t, m = item
                expected.append(reference.query(s, t, m))
        assert answers == expected
        assert report.num_queries == 40
        assert report.num_updates == len(stream) - 40
        assert report.update_seconds > 0
        assert report.answers_migrated >= 0
        assert "updates" in report.describe()


class TestTemporalEdges:
    def test_validity_interval(self):
        from repro.workloads.streams import TemporalEdge

        edge = TemporalEdge(0, 1, label=2, start=1, end=3)
        assert not edge.active_at(0)
        assert edge.active_at(1) and edge.active_at(2)
        assert not edge.active_at(3)
        with pytest.raises(ValueError):
            TemporalEdge(0, 1, label=0, start=-1, end=2)
        with pytest.raises(ValueError):
            TemporalEdge(0, 1, label=0, start=2, end=2)


class TestSnapshotOracleSequence:
    def _edges(self):
        from repro.workloads.streams import TemporalEdge

        # A 6-vertex ring persistent across all 4 windows, plus chords
        # that open/close between windows.
        ring = [
            TemporalEdge(i, (i + 1) % 6, label=i % 2, start=0, end=4)
            for i in range(6)
        ]
        chords = [
            TemporalEdge(0, 3, label=2, start=1, end=3),
            TemporalEdge(1, 4, label=2, start=2, end=4),
            TemporalEdge(2, 5, label=0, start=0, end=2),
        ]
        return ring + chords

    def _sequence(self):
        from repro.core.powcov import PowCovIndex
        from repro.workloads.streams import SnapshotOracleSequence

        return SnapshotOracleSequence(
            6, self._edges(), 3, lambda g: PowCovIndex(g, [0, 3]).build()
        )

    def test_windows_and_active_edges(self):
        seq = self._sequence()
        assert seq.num_windows == 4
        assert seq.window == 0
        active0 = set(seq.active_edges(0))
        assert (2, 5, 0) in active0 and (0, 3, 2) not in active0
        active1 = set(seq.active_edges(1))
        assert (0, 3, 2) in active1 and (2, 5, 0) in active1

    def test_advance_matches_fresh_build_per_window(self):
        from repro.core.powcov import PowCovIndex
        from repro.graph.labeled_graph import EdgeLabeledGraph

        seq = self._sequence()
        for window in range(seq.num_windows):
            seq.seek(window)
            snapshot = EdgeLabeledGraph.from_edges(
                6, seq.active_edges(window), num_labels=3
            )
            fresh = PowCovIndex(snapshot, [0, 3]).build()
            for s in range(6):
                for t in range(6):
                    for mask in (0b001, 0b011, 0b111):
                        assert seq.query(s, t, mask) == fresh.query(s, t, mask)
        assert seq.repair_stats is not None

    def test_seek_is_forward_only(self):
        seq = self._sequence()
        seq.seek(2)
        with pytest.raises(ValueError):
            seq.seek(1)
        with pytest.raises(ValueError):
            seq.seek(seq.num_windows)

    def test_temporal_query_stream_and_runner(self):
        from repro.workloads.streams import (
            run_temporal_queries,
            temporal_query_stream,
        )

        seq = self._sequence()
        queries = temporal_query_stream(seq, 30, seed=5)
        assert len(queries) == 30
        assert [q.window for q in queries] == sorted(q.window for q in queries)
        assert all(0 <= q.window < seq.num_windows for q in queries)
        answers = run_temporal_queries(seq, queries)
        assert len(answers) == 30
        # Deterministic: an identical fresh sequence replays identically.
        assert run_temporal_queries(self._sequence(), queries) == answers
