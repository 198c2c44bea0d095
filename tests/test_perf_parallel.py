"""Tests for the parallel index-construction engine (`repro.perf`).

The contract under test: ``build(parallel=...)`` produces **bit-for-bit**
the same index as the serial build — the same PowCov table, the same
query answers — for every backend and worker count, on undirected,
directed and weighted graphs; and the process pool's workers map every
graph by file region, with the temporary graph files always removed,
also when a worker raises.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.core.chromland import ChromLandIndex, local_search_selection
from repro.core.powcov import PowCovIndex
from repro.core.powcov.weighted import WeightedPowCovIndex
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.perf import shm as shm_mod
from repro.perf.parallel import (
    SERIAL,
    ParallelConfig,
    resolve_parallel,
    run_tasks,
)
from repro.store.index_store import open_graph, save_graph
from repro.workloads import generate_workload

PROCESS_2 = ParallelConfig(num_workers=2, backend="process")
THREAD_3 = ParallelConfig(num_workers=3, backend="thread", chunk_size=1)


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
# ParallelConfig semantics
# ----------------------------------------------------------------------
class TestConfig:
    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelConfig(backend="mpi")

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            ParallelConfig(num_workers=-1)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelConfig(chunk_size=0)

    def test_resolve_int_shorthand(self):
        assert resolve_parallel(4) == ParallelConfig(num_workers=4)
        assert resolve_parallel(1).backend == "serial"

    def test_resolve_rejects_bool(self):
        with pytest.raises(TypeError):
            resolve_parallel(True)

    def test_default_is_serial_and_settable(self):
        """No process-wide default: ``None`` is always serial, and a
        caller picks workers by passing a config."""
        assert resolve_parallel(None) is SERIAL
        threads = ParallelConfig(num_workers=2, backend="thread")
        assert resolve_parallel(threads) is threads
        assert resolve_parallel(None) is SERIAL

    def test_zero_workers_means_cpu_count(self):
        import os

        assert ParallelConfig(num_workers=0).effective_workers == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# PowCov: parallel == serial, entry for entry
# ----------------------------------------------------------------------
class TestPowCovParallel:
    @pytest.mark.parametrize("config", [PROCESS_2, THREAD_3, 2], ids=["process", "thread", "int"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_flat_layout_identical_undirected(self, config, seed):
        graph = labeled_erdos_renyi(70, 200, num_labels=4, seed=seed)
        landmarks = [0, 9, 23, 41, 66]
        serial = PowCovIndex(graph, landmarks).build()
        par = PowCovIndex(graph, landmarks).build(parallel=config)
        assert serial.table == par.table
        assert_same_answers(serial, par, graph)

    @pytest.mark.parametrize("config", [PROCESS_2, THREAD_3], ids=["process", "thread"])
    def test_directed_tables_identical(self, config):
        graph = directed_random(seed=5)
        landmarks = [0, 7, 14, 21]
        serial = PowCovIndex(graph, landmarks).build()
        par = PowCovIndex(graph, landmarks).build(parallel=config)
        assert serial.table == par.table
        assert serial.reverse_table == par.reverse_table
        assert_same_answers(serial, par, graph)

    @pytest.mark.parametrize("config", [PROCESS_2, THREAD_3], ids=["process", "thread"])
    def test_weighted_identical(self, config):
        graph = labeled_erdos_renyi(45, 120, num_labels=3, seed=7)
        weights = np.random.default_rng(0).integers(1, 6, size=graph.num_arcs)
        weights = weights.astype(np.float64)
        landmarks = [3, 19, 37]
        serial = WeightedPowCovIndex(graph, landmarks, weights).build()
        par = WeightedPowCovIndex(graph, landmarks, weights).build(parallel=config)
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
    @pytest.mark.parametrize("config", [PROCESS_2, THREAD_3], ids=["process", "thread"])
    def test_tables_identical_undirected(self, config):
        graph = labeled_erdos_renyi(80, 240, num_labels=4, seed=11)
        selection = local_search_selection(graph, 6, iterations=15, seed=0)
        serial = ChromLandIndex(graph, selection.landmarks, selection.colors).build()
        par = ChromLandIndex(graph, selection.landmarks, selection.colors).build(
            parallel=config
        )
        assert np.array_equal(serial.mono, par.mono)
        assert np.array_equal(serial.bi, par.bi)
        assert_same_answers(serial, par, graph)

    def test_tables_identical_directed(self):
        graph = directed_random(seed=13)
        landmarks = [0, 8, 16, 24]
        colors = [0, 1, 2, 0]
        serial = ChromLandIndex(graph, landmarks, colors).build()
        par = ChromLandIndex(graph, landmarks, colors).build(parallel=PROCESS_2)
        assert np.array_equal(serial.mono, par.mono)
        assert np.array_equal(serial.mono_in, par.mono_in)
        assert np.array_equal(serial.bi, par.bi)
        assert_same_answers(serial, par, graph)

    def test_workload_evaluation_unchanged(self):
        # End-to-end: identical indexes answer an identical workload.
        graph = labeled_erdos_renyi(60, 180, num_labels=3, seed=17)
        workload = generate_workload(graph, num_pairs=20, seed=1)
        selection = local_search_selection(graph, 4, iterations=10, seed=0)
        serial = ChromLandIndex(graph, selection.landmarks, selection.colors).build()
        par = ChromLandIndex(graph, selection.landmarks, selection.colors).build(
            parallel=PROCESS_2
        )
        for q in workload:
            assert serial.query(q.source, q.target, q.label_mask) == par.query(
                q.source, q.target, q.label_mask
            )


# ----------------------------------------------------------------------
# Graph handoff to worker processes
# ----------------------------------------------------------------------
def _echo_task(graphs, items, extra):
    return [graphs[0].num_vertices + item for item in items]


def _failing_task(graphs, items, extra):
    raise RuntimeError("worker exploded")


@pytest.fixture
def spill_dir(tmp_path, monkeypatch):
    """Point ``TMPDIR`` (and the cached ``tempfile.tempdir``) at an empty
    directory, so a test can see every temporary graph file."""
    spill = tmp_path / "spill"
    spill.mkdir()
    monkeypatch.setenv("TMPDIR", str(spill))
    monkeypatch.setattr(tempfile, "tempdir", None)
    return spill


def _spy_on_packs(monkeypatch) -> list[list[str]]:
    """Record the temporary files of every pack ``run_tasks`` exports."""
    exported: list[list[str]] = []
    original = shm_mod.share_graphs

    def spy(graphs):
        pack = original(graphs)
        exported.append(list(pack.temp_files))
        return pack

    monkeypatch.setattr(shm_mod, "share_graphs", spy)
    return exported


def _mapped_file(array):
    """The file an array's buffer maps (``None`` for in-memory arrays)."""
    while array is not None and not isinstance(array, np.memmap):
        array = array.base
    return None if array is None else os.fspath(array.filename)


def _specs(descriptor):
    return (descriptor.indptr, descriptor.neighbors, descriptor.edge_labels)


class TestSharedMemoryLifecycle:
    """Workers get graphs by file region; temporary files never outlive
    the pool."""

    def test_roundtrip_preserves_graph(self, spill_dir):
        graph = labeled_erdos_renyi(50, 140, num_labels=4, seed=19)
        pack = shm_mod.share_graphs((graph,))
        try:
            assert [os.path.dirname(p) for p in pack.temp_files] == [str(spill_dir)]
            attached = shm_mod.attach_graph(pack.descriptors[0])
            assert attached == graph
            assert attached.num_edges == graph.num_edges
            # Zero-copy: the worker's arrays map the file, not a copy.
            for array in (attached.indptr, attached.neighbors, attached.edge_labels):
                assert _mapped_file(array) == pack.temp_files[0]
        finally:
            pack.release()
        assert pack.temp_files == []
        assert list(spill_dir.iterdir()) == []

    def test_blocks_released_after_successful_run(self, spill_dir, monkeypatch):
        exported = _spy_on_packs(monkeypatch)
        graph = labeled_erdos_renyi(30, 80, num_labels=3, seed=23)
        results = run_tasks(
            _echo_task, [1, 2, 3, 4], graphs=(graph,), config=PROCESS_2
        )
        assert results == [31, 32, 33, 34]
        assert exported and exported[0], "in-memory graph should spill to a file"
        assert list(spill_dir.iterdir()) == []

    def test_blocks_unlinked_when_worker_raises(self, spill_dir, monkeypatch):
        exported = _spy_on_packs(monkeypatch)
        graph = labeled_erdos_renyi(30, 80, num_labels=3, seed=29)
        with pytest.raises(RuntimeError, match="worker exploded"):
            run_tasks(_failing_task, [1, 2, 3, 4], graphs=(graph,), config=PROCESS_2)
        assert exported and exported[0], "in-memory graph should spill to a file"
        assert list(spill_dir.iterdir()) == []


class TestFileBackedSharing:
    """Every descriptor array is a file region; store-opened graphs are
    mapped from their own file and never copied."""

    def test_in_memory_graph(self, spill_dir):
        graph = labeled_erdos_renyi(40, 100, num_labels=3, seed=5)
        pack = shm_mod.share_graphs((graph,))
        try:
            (path,) = pack.temp_files
            for spec in _specs(pack.descriptors[0]):
                assert isinstance(spec, shm_mod.FileArraySpec)
                assert spec.path == path
        finally:
            pack.release()
        assert list(spill_dir.iterdir()) == []

    def test_directed_graph_and_its_reversed_copy(self, spill_dir):
        graph = directed_random(seed=8)
        pair = (graph, graph.reversed())
        pack = shm_mod.share_graphs(pair)
        try:
            assert len(pack.temp_files) == 2
            for descriptor, path, original in zip(
                pack.descriptors, pack.temp_files, pair
            ):
                for spec in _specs(descriptor):
                    assert isinstance(spec, shm_mod.FileArraySpec)
                    assert spec.path == path
                assert descriptor.directed
                assert shm_mod.attach_graph(descriptor) == original
        finally:
            pack.release()
        assert list(spill_dir.iterdir()) == []

    def test_store_opened_graph_maps_its_own_file(self, spill_dir, tmp_path):
        path = tmp_path / "graph.repro"
        save_graph(labeled_erdos_renyi(40, 100, num_labels=3, seed=6), path)
        graph = open_graph(path)
        pack = shm_mod.share_graphs((graph,))
        try:
            assert pack.temp_files == []
            for spec in _specs(pack.descriptors[0]):
                assert isinstance(spec, shm_mod.FileArraySpec)
                assert spec.path == os.fspath(path)
            assert shm_mod.attach_graph(pack.descriptors[0]) == graph
        finally:
            pack.release()
        assert list(spill_dir.iterdir()) == []


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestRunTasks:
    def test_serial_sees_all_items_at_once(self):
        seen = []

        def task(graphs, items, extra):
            seen.append(list(items))
            return list(items)

        out = run_tasks(task, [1, 2, 3], config=None)
        assert out == [1, 2, 3]
        assert seen == [[1, 2, 3]]  # one chunk: batched kernels see everything

    def test_results_in_item_order_with_tiny_chunks(self):
        items = list(range(17))
        config = ParallelConfig(num_workers=3, chunk_size=2, backend="thread")

        def task(graphs, chunk, extra):
            return [item * 10 for item in chunk]

        assert run_tasks(task, items, config=config) == [i * 10 for i in items]

    def test_result_count_mismatch_raises(self):
        def bad_task(graphs, chunk, extra):
            return [0]  # drops items

        config = ParallelConfig(num_workers=2, chunk_size=2, backend="thread")
        with pytest.raises(RuntimeError, match="results"):
            run_tasks(bad_task, [1, 2, 3, 4], config=config)

    def test_empty_items(self):
        assert run_tasks(_echo_task, [], config=PROCESS_2) == []
