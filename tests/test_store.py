"""Tests for the mmap-able zero-copy store (``repro.store``).

Covers the binary container, persistence round-trips across the full
matrix (directed/undirected, weighted PowCov, empty and single-vertex
graphs), files written by earlier builds of format version 1,
fingerprint-mismatch rejection, the opened index's bit-identity with the
in-memory index, atomic saves, and the engine-session fingerprint
re-check.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.chromland import ChromLandIndex
from repro.core.powcov import PowCovIndex
from repro.core.powcov.weighted import WeightedPowCovIndex
from repro.engine import QuerySession
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.labelsets import LabelUniverse
from repro.store import FormatError, Section, Store, write_store
from repro.store import format as store_format
from repro.store.cache import IndexStore
from repro.store.index_store import open_graph, open_index, save_graph, save_index

from conftest import all_pairs_all_masks

INF = math.inf
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def graph():
    return labeled_erdos_renyi(40, 110, num_labels=3, seed=19)


@pytest.fixture(scope="module")
def digraph():
    rng = np.random.default_rng(5)
    edges = {
        (int(rng.integers(20)), int(rng.integers(20)), int(rng.integers(3)))
        for _ in range(70)
    }
    return EdgeLabeledGraph.from_edges(
        20, [(u, v, l) for u, v, l in edges if u != v], num_labels=3,
        directed=True,
    )


def sample_queries(graph):
    return [
        (s, t, mask)
        for s in range(0, graph.num_vertices, 2)
        for t in range(1, graph.num_vertices, 3)
        for mask in range((1 << graph.num_labels))
    ]


# ----------------------------------------------------------------------
# Container format
# ----------------------------------------------------------------------
class TestContainer:
    def test_sections_are_64_byte_aligned(self, tmp_path):
        path = tmp_path / "x.repro"
        write_store(path, "test", {}, [
            ("a", np.arange(3, dtype=np.int64)),
            ("b", np.arange(100, dtype=np.int16)),
        ])
        store = Store(path)
        for name in store.section_names():
            assert store.file_offset(name) % 64 == 0

    def test_meta_roundtrip(self, tmp_path):
        path = tmp_path / "x.repro"
        meta = {"alpha": 1, "beta": [1, 2], "gamma": "text", "delta": None}
        write_store(path, "test", meta, [])
        store = Store(path)
        assert store.kind == "test"
        assert store.meta == meta

    def test_zero_length_section(self, tmp_path):
        path = tmp_path / "x.repro"
        write_store(path, "test", {}, [("empty", np.empty(0, np.int64))])
        out = Store(path).array("empty")
        assert out.shape == (0,) and out.dtype == np.int64

    def test_not_a_store_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTASTOREFILE---plus-some-padding")
        with pytest.raises(FormatError, match="not a repro store file"):
            Store(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "x.repro"
        write_store(path, "test", {}, [])
        raw = bytearray(path.read_bytes())
        raw[8] = 0xFF  # bump the little-endian uint16 version field
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported store format version"):
            Store(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.repro"
        write_store(path, "test", {}, [("a", np.arange(64, dtype=np.int64))])
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(FormatError, match="extends past end of file"):
            Store(path).array("a")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "x.repro"
        write_store(path, "test", {}, [])
        with pytest.raises(FormatError, match="no section"):
            Store(path).array("ghost")

    @staticmethod
    def _entry(**overrides):
        entry = {"name": "a", "dtype": "<i8", "shape": [4], "offset": 0,
                 "nbytes": 32}
        entry.update(overrides)
        return entry

    def test_null_codec_entry_is_raw(self):
        # Format-1 writers recorded ``"codec": null`` on every raw section.
        section = Section.from_json(self._entry(codec=None))
        assert section.nbytes == 32 and section.shape == (4,)

    def test_encoded_section_rejected(self):
        with pytest.raises(FormatError, match="section 'a' is not a raw <i8"):
            Section.from_json(self._entry(codec="varint"))

    @pytest.mark.parametrize("nbytes", [0, 31, 33, 64])
    def test_length_must_match_shape(self, nbytes):
        with pytest.raises(FormatError, match="section 'a' is not a raw <i8"):
            Section.from_json(self._entry(nbytes=nbytes))


# ----------------------------------------------------------------------
# Round-trips: the full matrix, bit-identity
# ----------------------------------------------------------------------
def _roundtrip(index, path):
    path = path.with_suffix(".repro")
    save_index(index, path)
    return open_index(path, index.graph)


class TestRoundtripMatrix:
    def test_undirected_powcov(self, graph, tmp_path):
        original = PowCovIndex(graph, [0, 13, 26]).build()
        loaded = _roundtrip(original, tmp_path / "p")
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == original.batch_query(queries)
        assert [loaded.query(*q) for q in queries] == \
            [original.query(*q) for q in queries]
        assert loaded.index_size_entries() == original.index_size_entries()
        assert loaded.reachable_pairs() == original.reachable_pairs()
        assert loaded.max_entries_per_pair() == original.max_entries_per_pair()

    def test_directed_powcov(self, digraph, tmp_path):
        original = PowCovIndex(digraph, [0, 7, 14]).build()
        loaded = _roundtrip(original, tmp_path / "d")
        queries = [
            (s, t, mask)
            for s in range(20) for t in range(20) for mask in range(8)
        ]
        assert loaded.batch_query(queries) == original.batch_query(queries)
        assert [loaded.query(*q) for q in queries] == \
            [original.query(*q) for q in queries]

    def test_weighted_powcov(self, tmp_path):
        graph = labeled_erdos_renyi(30, 80, num_labels=3, seed=4)
        weights = np.random.default_rng(0).uniform(0.5, 2.0, graph.num_arcs)
        original = WeightedPowCovIndex(graph, [0, 10, 20], weights).build()
        loaded = _roundtrip(original, tmp_path / "w")
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == original.batch_query(queries)

    def test_chromland(self, graph, tmp_path):
        original = ChromLandIndex(graph, [0, 10, 20, 30], [0, 1, 2, 0]).build()
        loaded = _roundtrip(original, tmp_path / "c")
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == original.batch_query(queries)
        assert loaded.query_mode == original.query_mode

    def test_single_vertex_graph(self, tmp_path):
        graph = EdgeLabeledGraph.from_edges(1, [], num_labels=1)
        original = PowCovIndex(graph, [0]).build()
        loaded = _roundtrip(original, tmp_path / "s")
        assert loaded.query(0, 0, 1) == 0.0
        assert loaded.query(0, 0, 0) == 0.0
        assert loaded.index_size_entries() == 0

    def test_edgeless_graph(self, tmp_path):
        graph = EdgeLabeledGraph.from_edges(3, [], num_labels=2)
        original = PowCovIndex(graph, [0, 2]).build()
        loaded = _roundtrip(original, tmp_path / "e")
        for mask in range(4):
            assert loaded.query(0, 1, mask) == INF
            assert loaded.query(2, 2, mask) == 0.0

    def test_fingerprint_mismatch_rejected(self, graph, tmp_path):
        index = PowCovIndex(graph, [0, 10]).build()
        path = tmp_path / "p.repro"
        save_index(index, path)
        other = labeled_erdos_renyi(40, 110, num_labels=3, seed=99)
        with pytest.raises(FormatError, match="different graph"):
            open_index(path, other)

    def test_exactness_against_differential_harness(self, tmp_path):
        # The loaded oracle's estimate must match the original's for every
        # (s, t, mask); where the in-memory index is exact (landmark on
        # every shortest path or endpoints are landmarks), so is the load.
        graph = labeled_erdos_renyi(12, 26, num_labels=3, seed=3)
        original = PowCovIndex(graph, list(range(12))).build()
        loaded = _roundtrip(original, tmp_path / "x")
        for s, t, mask, exact in all_pairs_all_masks(graph):
            got = loaded.query(s, t, mask)
            assert got == original.query(s, t, mask)
            # With every vertex a landmark the estimate is exact.
            assert got == exact


class TestMappedIndex:
    def test_mapped_type_and_storage(self, graph, tmp_path):
        index = PowCovIndex(graph, [0, 13]).build()
        save_index(index, tmp_path / "p.repro")
        loaded = open_index(tmp_path / "p.repro", graph)
        assert type(loaded) is PowCovIndex
        # The opened table *is* the file's columns, mapped read-only.
        for column in ("key", "dist", "mask"):
            assert isinstance(getattr(loaded.table, column), np.memmap)
        assert loaded.table == index.table
        assert loaded.stored_fingerprint == int(graph_fingerprint(graph))

    def test_opened_index_resaves_byte_identically(self, graph, tmp_path):
        index = PowCovIndex(graph, [0, 13]).build()
        save_index(index, tmp_path / "p.repro")
        loaded = open_index(tmp_path / "p.repro", graph)
        save_index(loaded, tmp_path / "q.repro")
        assert (tmp_path / "q.repro").read_bytes() == (
            tmp_path / "p.repro"
        ).read_bytes()

    def test_mapped_engine_session_bit_identity(self, graph, tmp_path):
        index = PowCovIndex(graph, [0, 13, 26]).build()
        save_index(index, tmp_path / "p.repro")
        loaded = open_index(tmp_path / "p.repro", graph)
        queries = sample_queries(graph)
        session = QuerySession(loaded, cache_size=0)
        assert session.run(queries) == [index.query(*q) for q in queries]

    def test_wrong_kind_open(self, graph, tmp_path):
        save_graph(graph, tmp_path / "g.repro")
        with pytest.raises(FormatError, match="does not hold an index"):
            open_index(tmp_path / "g.repro", graph)

    def test_unbuilt_powcov_rejected(self, graph, tmp_path):
        with pytest.raises(ValueError, match="build"):
            save_index(PowCovIndex(graph, [0]), tmp_path / "x.repro")

    def test_unbuilt_chromland_rejected(self, graph, tmp_path):
        with pytest.raises(ValueError, match="build"):
            save_index(ChromLandIndex(graph, [0], [0]), tmp_path / "x.repro")

    def test_public_aliases(self):
        assert repro.save_index is save_index
        assert repro.load_index is open_index

    def test_query_mode_preserved(self, graph, tmp_path):
        original = ChromLandIndex(graph, [0, 10], [0, 1],
                                  query_mode="simple").build()
        repro.save_index(original, tmp_path / "c.repro")
        loaded = repro.load_index(tmp_path / "c.repro", graph)
        assert loaded.query_mode == "simple"
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == original.batch_query(queries)


class TestFormatOneFiles:
    """Files written by the format-1 writer that still had section codecs.

    ``tests/data`` holds a PowCov index over the module's ``graph`` with
    landmarks ``[0, 13, 26]``, saved once raw and once with every section
    varint/delta-varint encoded.  The raw file must open and answer like
    a fresh build; the encoded one must be refused before any section is
    mapped, since its byte counts do not match its shapes.
    """

    def test_raw_file_answers_bit_identically(self, graph):
        loaded = open_index(DATA / "powcov-format1-raw.repro", graph)
        original = PowCovIndex(graph, [0, 13, 26]).build()
        assert isinstance(loaded.table.key, np.memmap)
        assert loaded.table == original.table
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == original.batch_query(queries)
        assert [loaded.query(*q) for q in queries] == \
            [original.query(*q) for q in queries]

    def test_encoded_file_rejected_unmapped(self, graph, monkeypatch):
        def no_mapping(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("an encoded section was memory-mapped")

        monkeypatch.setattr(store_format.np, "memmap", no_mapping)
        with pytest.raises(
            FormatError, match="section 'landmarks' is not a raw <i8 array"
        ):
            open_index(DATA / "powcov-format1-varint.repro", graph)


class TestGraphStore:
    def test_roundtrip_zero_copy(self, graph, tmp_path):
        save_graph(graph, tmp_path / "g.repro")
        loaded = open_graph(tmp_path / "g.repro")
        assert loaded == graph
        assert graph_fingerprint(loaded) == graph_fingerprint(graph)
        # The CSR arrays must be views over the file mapping, not copies.
        for name in ("indptr", "neighbors", "edge_labels"):
            array = getattr(loaded, name)
            base = array
            while base is not None and not isinstance(base, np.memmap):
                base = base.base
            assert isinstance(base, np.memmap)

    def test_label_universe_roundtrip(self, tmp_path):
        universe = LabelUniverse(["red", "green", "blue"])
        graph = EdgeLabeledGraph.from_edges(
            3, [(0, 1, 0), (1, 2, 2)], num_labels=3, label_universe=universe
        )
        save_graph(graph, tmp_path / "g.repro")
        loaded = open_graph(tmp_path / "g.repro")
        assert loaded.label_universe is not None
        assert list(loaded.label_universe) == ["red", "green", "blue"]
        assert loaded.mask(["red", "blue"]) == graph.mask(["red", "blue"])

    def test_directed_roundtrip(self, digraph, tmp_path):
        save_graph(digraph, tmp_path / "d.repro")
        loaded = open_graph(tmp_path / "d.repro")
        assert loaded == digraph
        assert loaded.directed


class TestFormatError:
    def test_format_error_is_a_value_error(self):
        assert issubclass(FormatError, ValueError)

    def test_npz_archive_rejected(self, graph, tmp_path):
        # Indexes persist in the store format only; an old numpy archive
        # fails loudly instead of loading.
        path = tmp_path / "old.npz"
        np.savez(path, kind=np.str_("powcov"), fingerprint=np.int64(0))
        with pytest.raises(FormatError, match="not a repro store file"):
            open_index(path, graph)


class TestSessionFingerprintCheck:
    def test_session_rejects_stale_stored_fingerprint(self, graph, tmp_path):
        index = PowCovIndex(graph, [0, 13]).build()
        save_index(index, tmp_path / "p.repro")
        loaded = open_index(tmp_path / "p.repro", graph)
        loaded.stored_fingerprint = 12345  # simulate a swapped graph
        with pytest.raises(FormatError, match="different graph"):
            QuerySession(loaded)

    def test_rebind_rechecks(self, graph, tmp_path):
        index = PowCovIndex(graph, [0, 13]).build()
        session = QuerySession(index)
        save_index(index, tmp_path / "p.repro")
        loaded = open_index(tmp_path / "p.repro", graph)
        session.rebind(loaded)  # same graph: fine
        loaded.stored_fingerprint = 1
        with pytest.raises(FormatError, match="different graph"):
            session.rebind(loaded)


class TestIndexStoreDirectory:
    def test_save_then_load(self, graph, tmp_path):
        store = IndexStore(tmp_path / "cache")
        index = PowCovIndex(graph, [0, 13]).build()
        path = store.save(index, tag="k2")
        assert path is not None and Store(path).kind == "powcov"
        loaded = store.load("powcov", graph, tag="k2")
        assert isinstance(loaded.table.key, np.memmap)
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == index.batch_query(queries)

    def test_miss_returns_none(self, graph, tmp_path):
        store = IndexStore(tmp_path / "cache")
        assert store.load("powcov", graph, tag="absent") is None

    def test_different_graph_misses(self, graph, tmp_path):
        store = IndexStore(tmp_path / "cache")
        store.save(PowCovIndex(graph, [0]).build(), tag="k1")
        other = labeled_erdos_renyi(40, 110, num_labels=3, seed=99)
        assert store.load("powcov", other, tag="k1") is None

    def test_read_only_store_never_writes(self, graph, tmp_path):
        store = IndexStore(tmp_path / "cache", writable=False)
        assert store.save(PowCovIndex(graph, [0]).build(), tag="k1") is None
        assert not (tmp_path / "cache").exists()

    def test_chromland_kind(self, graph, tmp_path):
        store = IndexStore(tmp_path / "cache")
        index = ChromLandIndex(graph, [0, 10], [0, 1]).build()
        store.save(index, tag="c")
        loaded = store.load("chromland", graph, tag="c")
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == index.batch_query(queries)


class _FailingWrites:
    """A binary write handle that raises ``KeyboardInterrupt`` after
    ``writes`` successful ``write`` calls, like Ctrl-C mid-save."""

    def __init__(self, handle, writes):
        self._handle = handle
        self._writes = writes

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, data):
        if self._writes == 0:
            raise KeyboardInterrupt
        self._writes -= 1
        return self._handle.write(data)


def _interrupt_store_writes(patch, writes):
    """Make every store file opened for writing fail part-way."""

    def failing_open(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        return handle if "r" in mode else _FailingWrites(handle, writes)

    patch.setattr(store_format, "open", failing_open, raising=False)


class TestInterruptedSave:
    def test_interrupted_save_leaves_no_file(self, graph, tmp_path,
                                             monkeypatch):
        store = IndexStore(tmp_path / "cache")
        index = PowCovIndex(graph, [0, 13]).build()
        with monkeypatch.context() as patch:
            _interrupt_store_writes(patch, writes=4)
            with pytest.raises(KeyboardInterrupt):
                store.save(index)
        # No partial file under the canonical name, and no leftovers.
        assert store.find("powcov", graph) is None
        assert os.listdir(tmp_path / "cache") == []
        store.save(index)
        queries = sample_queries(graph)
        loaded = store.load("powcov", graph)
        assert loaded.batch_query(queries) == index.batch_query(queries)

    def test_interrupted_overwrite_keeps_previous_file(self, graph, tmp_path,
                                                       monkeypatch):
        store = IndexStore(tmp_path / "cache")
        index = PowCovIndex(graph, [0, 13]).build()
        path = store.save(index)
        saved = Path(path).read_bytes()
        with monkeypatch.context() as patch:
            _interrupt_store_writes(patch, writes=4)
            with pytest.raises(KeyboardInterrupt):
                store.save(index)
        assert Path(path).read_bytes() == saved
        assert os.listdir(tmp_path / "cache") == [os.path.basename(path)]
