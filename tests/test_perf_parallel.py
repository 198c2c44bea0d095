"""Tests for the parallel index-construction engine (`repro.perf`).

The contract under test: ``build(parallel=n)`` produces **bit-for-bit**
the same index as the serial build — the same PowCov table, the same
ChromLand tables, the same query answers — for every worker count, on
undirected, directed and weighted graphs; worker threads trace under the
build's span; and a task that raises on a worker thread surfaces from
``run_tasks`` unchanged.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.chromland import ChromLandIndex, local_search_selection
from repro.core.powcov import PowCovIndex
from repro.core.powcov.weighted import WeightedPowCovIndex
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.obs.trace import get_trace, reset_trace, set_tracing
from repro.perf.parallel import run_tasks, worker_count
from repro.workloads import generate_workload

#: Worker counts every identity test builds with.
WORKERS = [2, 3]


def directed_random(n=40, m=150, labels=3, seed=0) -> EdgeLabeledGraph:
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((u, v, int(rng.integers(labels))))
    return EdgeLabeledGraph.from_edges(
        n, sorted(edges), num_labels=labels, directed=True
    )


def random_queries(graph, count=60, seed=0):
    rng = np.random.default_rng(seed)
    universe = (1 << graph.num_labels) - 1
    return [
        (
            int(rng.integers(graph.num_vertices)),
            int(rng.integers(graph.num_vertices)),
            int(rng.integers(1, universe + 1)),
        )
        for _ in range(count)
    ]


def assert_same_answers(a, b, graph):
    for s, t, mask in random_queries(graph):
        assert a.query(s, t, mask) == b.query(s, t, mask)


# ----------------------------------------------------------------------
# ``parallel=`` semantics
# ----------------------------------------------------------------------
class TestConfig:
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="parallel"):
            worker_count(-1)

    def test_resolve_int_shorthand(self):
        assert worker_count(4) == 4
        assert worker_count(1) == 1

    def test_resolve_rejects_bool(self):
        with pytest.raises(TypeError):
            worker_count(True)

    def test_default_is_serial_and_settable(self):
        """No process-wide default: ``None`` is always serial, and a
        caller picks workers by passing an int."""
        assert worker_count(None) == 1
        assert worker_count(3) == 3
        assert worker_count(None) == 1

    def test_zero_workers_means_cpu_count(self):
        assert worker_count(0) == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# PowCov: parallel == serial, entry for entry
# ----------------------------------------------------------------------
class TestPowCovParallel:
    @pytest.mark.parametrize("parallel", WORKERS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_flat_layout_identical_undirected(self, parallel, seed):
        graph = labeled_erdos_renyi(70, 200, num_labels=4, seed=seed)
        landmarks = [0, 9, 23, 41, 66]
        serial = PowCovIndex(graph, landmarks).build()
        par = PowCovIndex(graph, landmarks).build(parallel=parallel)
        assert serial.table == par.table
        assert_same_answers(serial, par, graph)

    @pytest.mark.parametrize("parallel", WORKERS)
    def test_directed_tables_identical(self, parallel):
        graph = directed_random(seed=5)
        landmarks = [0, 7, 14, 21]
        serial = PowCovIndex(graph, landmarks).build()
        par = PowCovIndex(graph, landmarks).build(parallel=parallel)
        assert serial.table == par.table
        assert serial.reverse_table == par.reverse_table
        assert_same_answers(serial, par, graph)

    @pytest.mark.parametrize("parallel", WORKERS)
    def test_weighted_identical(self, parallel):
        graph = labeled_erdos_renyi(45, 120, num_labels=3, seed=7)
        weights = np.random.default_rng(0).integers(1, 6, size=graph.num_arcs)
        weights = weights.astype(np.float64)
        landmarks = [3, 19, 37]
        serial = WeightedPowCovIndex(graph, landmarks, weights).build()
        par = WeightedPowCovIndex(graph, landmarks, weights).build(parallel=parallel)
        assert serial.table == par.table
        assert_same_answers(serial, par, graph)

    def test_build_one_matches_task_path(self):
        # _build_one (kept for stats/inspection code) and the chunk task
        # must stay the same code path.
        graph = labeled_erdos_renyi(40, 100, num_labels=3, seed=9)
        index = PowCovIndex(graph, [5])
        built = index.build()
        one = index._build_one(5)
        for column, want in zip(built.table.landmark_slice(0), one.arrays):
            assert np.array_equal(column, want)
        assert built.per_landmark[0].num_sssp == one.num_sssp


# ----------------------------------------------------------------------
# ChromLand: parallel == serial on every stored table
# ----------------------------------------------------------------------
class TestChromLandParallel:
    @pytest.mark.parametrize("parallel", WORKERS)
    def test_tables_identical_undirected(self, parallel):
        graph = labeled_erdos_renyi(80, 240, num_labels=4, seed=11)
        selection = local_search_selection(graph, 6, iterations=15, seed=0)
        serial = ChromLandIndex(graph, selection.landmarks, selection.colors).build()
        par = ChromLandIndex(graph, selection.landmarks, selection.colors).build(
            parallel=parallel
        )
        assert np.array_equal(serial.mono, par.mono)
        assert np.array_equal(serial.bi, par.bi)
        assert_same_answers(serial, par, graph)

    def test_tables_identical_directed(self):
        graph = directed_random(seed=13)
        landmarks = [0, 8, 16, 24]
        colors = [0, 1, 2, 0]
        serial = ChromLandIndex(graph, landmarks, colors).build()
        for parallel in WORKERS:
            par = ChromLandIndex(graph, landmarks, colors).build(parallel=parallel)
            assert np.array_equal(serial.mono, par.mono)
            assert np.array_equal(serial.mono_in, par.mono_in)
            assert np.array_equal(serial.bi, par.bi)
            assert_same_answers(serial, par, graph)

    @pytest.mark.parametrize("parallel", WORKERS)
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize(
        ("num_landmarks", "threads"),
        # 24 landmarks over 4 colours: 96 sweeps undirected, 120 directed,
        # two bitset lanes, so two threads; 6 landmarks fit one lane.
        [(24, 2), (6, 1)],
    )
    def test_one_thread_per_bitset_lane(
        self, tracing, parallel, directed, num_landmarks, threads
    ):
        if directed:
            graph = directed_random(n=120, m=420, labels=4, seed=19)
        else:
            graph = labeled_erdos_renyi(120, 300, num_labels=4, seed=19)
        landmarks = list(range(0, 120, 120 // num_landmarks))
        colors = [i % 4 for i in range(num_landmarks)]
        serial = ChromLandIndex(graph, landmarks, colors).build()
        reset_trace()
        par = ChromLandIndex(graph, landmarks, colors).build(parallel=parallel)
        (root,) = get_trace()
        (run,) = root.children
        assert run.name == "parallel.run_tasks"
        assert run.tags["workers"] == str(threads)
        assert root.counters["sweeps"] == num_landmarks * (5 if directed else 4)
        for table in ("mono", "mono_in", "bi"):
            assert np.array_equal(getattr(serial, table), getattr(par, table))
        assert_same_answers(serial, par, graph)

    def test_workload_evaluation_unchanged(self):
        # End-to-end: identical indexes answer an identical workload.
        graph = labeled_erdos_renyi(60, 180, num_labels=3, seed=17)
        workload = generate_workload(graph, num_pairs=20, seed=1)
        selection = local_search_selection(graph, 4, iterations=10, seed=0)
        serial = ChromLandIndex(graph, selection.landmarks, selection.colors).build()
        par = ChromLandIndex(graph, selection.landmarks, selection.colors).build(
            parallel=2
        )
        for q in workload:
            assert serial.query(q.source, q.target, q.label_mask) == par.query(
                q.source, q.target, q.label_mask
            )


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def _echo_task(graphs, items, extra):
    return [graphs[0].num_vertices + item for item in items]


class _WorkerError(Exception):
    pass


@pytest.fixture
def tracing():
    set_tracing(True)
    reset_trace()
    yield
    set_tracing(False)
    reset_trace()


class TestRunTasks:
    def test_serial_sees_all_items_at_once(self):
        seen = []

        def task(graphs, items, extra):
            seen.append(list(items))
            return list(items)

        for parallel in (None, 1):
            assert run_tasks(task, [1, 2, 3], parallel=parallel) == [1, 2, 3]
        # One chunk each: batched kernels see everything.
        assert seen == [[1, 2, 3], [1, 2, 3]]

    def test_one_contiguous_chunk_per_worker(self):
        seen = []

        def task(graphs, chunk, extra):
            seen.append(list(chunk))
            return list(chunk)

        assert run_tasks(task, list(range(7)), parallel=3) == list(range(7))
        assert sorted(seen) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_results_in_item_order_with_tiny_chunks(self):
        items = list(range(17))

        def task(graphs, chunk, extra):
            return [item * 10 for item in chunk]

        # 9 workers over 17 items: chunks of two.
        assert run_tasks(task, items, parallel=9) == [i * 10 for i in items]

    def test_worker_exception_surfaces_unchanged(self):
        error = _WorkerError("worker exploded")

        def task(graphs, chunk, extra):
            if 3 in chunk:
                raise error
            return list(chunk)

        with pytest.raises(_WorkerError) as raised:
            run_tasks(task, [1, 2, 3, 4], parallel=2)
        assert raised.value is error

    def test_result_count_mismatch_raises(self):
        def bad_task(graphs, chunk, extra):
            return [0]  # drops items

        with pytest.raises(RuntimeError, match="results"):
            run_tasks(bad_task, [1, 2, 3, 4], parallel=2)

    def test_empty_items(self):
        assert run_tasks(_echo_task, [], parallel=2) == []

    def test_traced_parallel_build_is_one_tree(self, tracing):
        graph = labeled_erdos_renyi(40, 100, num_labels=3, seed=9)
        PowCovIndex(graph, [0, 10, 20, 30]).build(parallel=2)
        (root,) = get_trace()
        assert root.name == "powcov.build"
        (run,) = root.children
        assert run.name == "parallel.run_tasks"
        assert [c.name for c in run.children] == ["parallel.worker_chunk"] * 2
        landmarks = [
            span.name for chunk in run.children for span in chunk.children
        ]
        assert landmarks == ["powcov.landmark"] * 4
