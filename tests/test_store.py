"""Tests for the mmap-able zero-copy store (``repro.store``).

Covers the binary container, the varint/delta codecs, persistence
round-trips across the full matrix (directed/undirected, weighted PowCov,
empty and single-vertex graphs, raw and compressed sections),
fingerprint-mismatch rejection, the opened index's bit-identity with the
in-memory index, and the engine-session fingerprint re-check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.chromland import ChromLandIndex
from repro.core.powcov import PowCovIndex
from repro.core.powcov.weighted import WeightedPowCovIndex
from repro.engine import QuerySession
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.labelsets import LabelUniverse
from repro.store import FormatError, Store, is_store_file, write_store
from repro.store.cache import IndexStore
from repro.store.compress import (
    decode_array,
    encode_array,
    varint_decode,
    varint_encode,
    zigzag_decode,
    zigzag_encode,
)
from repro.store.index_store import open_graph, open_index, save_graph, save_index

from conftest import all_pairs_all_masks

INF = math.inf


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
# Codecs
# ----------------------------------------------------------------------
class TestCodecs:
    @pytest.mark.parametrize("values", [
        [],
        [0],
        [0, 1, -1, 63, -64, 64, 127, 128, -12345],
        [2**62, -(2**62), 2**63 - 1, -(2**63)],
    ])
    def test_zigzag_roundtrip(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(arr)), arr)

    def test_zigzag_small_magnitudes_stay_small(self):
        encoded = zigzag_encode(np.asarray([-1, 1, -2, 2], dtype=np.int64))
        assert encoded.tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_varint_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        exponents = rng.integers(0, 63, size=500)
        values = (rng.integers(0, 2, size=500).astype(np.uint64)
                  + (np.uint64(1) << exponents.astype(np.uint64)))
        stream = varint_encode(values)
        assert np.array_equal(varint_decode(stream, len(values)), values)

    def test_varint_single_byte_values(self):
        values = np.arange(128, dtype=np.uint64)
        stream = varint_encode(values)
        assert len(stream) == 128  # one byte each
        assert np.array_equal(varint_decode(stream, 128), values)

    def test_varint_truncated_rejected(self):
        stream = varint_encode(np.asarray([300], dtype=np.uint64))
        with pytest.raises(FormatError, match="truncated"):
            varint_decode(stream[:-1], 1)

    def test_varint_count_mismatch_rejected(self):
        stream = varint_encode(np.asarray([1, 2, 3], dtype=np.uint64))
        with pytest.raises(FormatError, match="expected 2"):
            varint_decode(stream, 2)

    @pytest.mark.parametrize("codec", ["varint", "delta-varint"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16])
    def test_encode_decode_roundtrip(self, codec, dtype):
        rng = np.random.default_rng(7)
        arr = rng.integers(-1000, 1000, size=(13, 17)).astype(dtype)
        buffer = np.frombuffer(encode_array(arr, codec), dtype=np.uint8)
        out = decode_array(buffer, codec, np.dtype(dtype), arr.shape)
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)

    def test_delta_varint_compresses_sorted(self):
        sorted_arr = np.cumsum(np.ones(10_000, dtype=np.int64)) * 3
        delta = encode_array(sorted_arr, "delta-varint")
        plain = encode_array(sorted_arr, "varint")
        assert len(delta) < len(plain) < sorted_arr.nbytes

    def test_float_rejected(self):
        with pytest.raises(FormatError, match="integer"):
            encode_array(np.ones(3, dtype=np.float64), "varint")

    def test_unknown_codec_rejected(self):
        with pytest.raises(FormatError, match="unknown section codec"):
            encode_array(np.ones(3, dtype=np.int64), "gzip")


# ----------------------------------------------------------------------
# Container format
# ----------------------------------------------------------------------
class TestContainer:
    def test_sections_are_64_byte_aligned(self, tmp_path):
        path = tmp_path / "x.repro"
        write_store(path, "test", {}, [
            ("a", np.arange(3, dtype=np.int64), None),
            ("b", np.arange(100, dtype=np.int16), None),
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
        write_store(path, "test", {}, [("empty", np.empty(0, np.int64), None)])
        out = Store(path).array("empty")
        assert out.shape == (0,) and out.dtype == np.int64

    def test_not_a_store_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTASTOREFILE---plus-some-padding")
        assert not is_store_file(path)
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
        write_store(path, "test", {}, [("a", np.arange(64, dtype=np.int64), None)])
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(FormatError, match="extends past end of file"):
            Store(path).array("a")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "x.repro"
        write_store(path, "test", {}, [])
        with pytest.raises(FormatError, match="no section"):
            Store(path).array("ghost")


# ----------------------------------------------------------------------
# Round-trips: the full matrix, raw and compressed, bit-identity
# ----------------------------------------------------------------------
def _roundtrip(index, path, compress=False):
    path = path.with_suffix(".repro")
    save_index(index, path, compress=compress)
    return open_index(path, index.graph)


@pytest.mark.parametrize("compress", [False, True], ids=["mmap-False", "mmap-True"])
class TestRoundtripMatrix:
    def test_undirected_powcov(self, graph, tmp_path, compress):
        original = PowCovIndex(graph, [0, 13, 26]).build()
        loaded = _roundtrip(original, tmp_path / "p", compress)
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == original.batch_query(queries)
        assert [loaded.query(*q) for q in queries] == \
            [original.query(*q) for q in queries]
        assert loaded.index_size_entries() == original.index_size_entries()
        assert loaded.reachable_pairs() == original.reachable_pairs()
        assert loaded.max_entries_per_pair() == original.max_entries_per_pair()

    def test_directed_powcov(self, digraph, tmp_path, compress):
        original = PowCovIndex(digraph, [0, 7, 14]).build()
        loaded = _roundtrip(original, tmp_path / "d", compress)
        queries = [
            (s, t, mask)
            for s in range(20) for t in range(20) for mask in range(8)
        ]
        assert loaded.batch_query(queries) == original.batch_query(queries)
        assert [loaded.query(*q) for q in queries] == \
            [original.query(*q) for q in queries]

    def test_weighted_powcov(self, tmp_path, compress):
        graph = labeled_erdos_renyi(30, 80, num_labels=3, seed=4)
        weights = np.random.default_rng(0).uniform(0.5, 2.0, graph.num_arcs)
        original = WeightedPowCovIndex(graph, [0, 10, 20], weights).build()
        loaded = _roundtrip(original, tmp_path / "w", compress)
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == original.batch_query(queries)

    def test_chromland(self, graph, tmp_path, compress):
        original = ChromLandIndex(graph, [0, 10, 20, 30], [0, 1, 2, 0]).build()
        loaded = _roundtrip(original, tmp_path / "c", compress)
        queries = sample_queries(graph)
        assert loaded.batch_query(queries) == original.batch_query(queries)
        assert loaded.query_mode == original.query_mode

    def test_single_vertex_graph(self, tmp_path, compress):
        graph = EdgeLabeledGraph.from_edges(1, [], num_labels=1)
        original = PowCovIndex(graph, [0]).build()
        loaded = _roundtrip(original, tmp_path / "s", compress)
        assert loaded.query(0, 0, 1) == 0.0
        assert loaded.query(0, 0, 0) == 0.0
        assert loaded.index_size_entries() == 0

    def test_edgeless_graph(self, tmp_path, compress):
        graph = EdgeLabeledGraph.from_edges(3, [], num_labels=2)
        original = PowCovIndex(graph, [0, 2]).build()
        loaded = _roundtrip(original, tmp_path / "e", compress)
        for mask in range(4):
            assert loaded.query(0, 1, mask) == INF
            assert loaded.query(2, 2, mask) == 0.0

    def test_fingerprint_mismatch_rejected(self, graph, tmp_path, compress):
        index = PowCovIndex(graph, [0, 10]).build()
        path = tmp_path / "p.repro"
        save_index(index, path, compress=compress)
        other = labeled_erdos_renyi(40, 110, num_labels=3, seed=99)
        with pytest.raises(FormatError, match="different graph"):
            open_index(path, other)

    def test_exactness_against_differential_harness(self, tmp_path, compress):
        # The loaded oracle's estimate must match the original's for every
        # (s, t, mask); where the in-memory index is exact (landmark on
        # every shortest path or endpoints are landmarks), so is the load.
        graph = labeled_erdos_renyi(12, 26, num_labels=3, seed=3)
        original = PowCovIndex(graph, list(range(12))).build()
        loaded = _roundtrip(original, tmp_path / "x", compress)
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

    def test_compressed_roundtrip(self, graph, tmp_path):
        save_graph(graph, tmp_path / "g.repro", compress=True)
        assert open_graph(tmp_path / "g.repro") == graph

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
        assert path is not None and is_store_file(path)
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


class TestIndexStoreLineage:
    """The fingerprint-lineage manifest for versioned graphs."""

    def test_lineage_chain_walks_child_to_ancestor(self, graph, tmp_path):
        from repro.graph.delta import GraphDelta, apply_delta

        store = IndexStore(tmp_path / "cache")
        store.save(PowCovIndex(graph, [0]).build())
        # An original (version 0) build records no lineage.
        assert store.lineage_of(graph) == []

        edge = next(
            (u, int(v), int(l))
            for u in range(graph.num_vertices)
            for v, l in zip(graph.neighbors_of(u), graph.labels_of(u))
            if u < int(v)
        )
        v1 = apply_delta(graph, GraphDelta(deletions=(edge,)))
        v2 = apply_delta(v1, GraphDelta(insertions=(edge,)))
        store.save(PowCovIndex(v1, [0]).build())
        store.save(PowCovIndex(v2, [0]).build())

        chain = store.lineage_of(v2)
        assert [e["version"] for e in chain] == [2, 1]
        assert chain[0]["parent"] == chain[1]["fingerprint"]
        assert chain[0]["delta"] == "delta(+1 -0 ~0)"
        assert chain[1]["delta"] == "delta(+0 -1 ~0)"
        # The middle version's chain is just its own link.
        assert len(store.lineage_of(v1)) == 1

    def test_lineage_records_deduplicate(self, graph, tmp_path):
        from repro.graph.delta import GraphDelta, apply_delta

        store = IndexStore(tmp_path / "cache")
        edge = next(
            (u, int(v), int(l))
            for u in range(graph.num_vertices)
            for v, l in zip(graph.neighbors_of(u), graph.labels_of(u))
            if u < int(v)
        )
        v1 = apply_delta(graph, GraphDelta(deletions=(edge,)))
        store.save(PowCovIndex(v1, [0]).build())
        store.save(PowCovIndex(v1, [0, 13]).build(), tag="k2")
        with open(store.lineage_path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 1
