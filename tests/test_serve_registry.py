"""Registry lifecycle tests: LRU, single-flight loads, fingerprints, deltas.

These pin the serving-layer state machine rather than the HTTP surface:

* warm-session LRU eviction under ``max_sessions``;
* store-backed loads reject an index whose embedded fingerprint does not
  match the registered graph (a renamed/stale file never silently serves);
* N threads racing on a cold oracle trigger exactly one loader call;
* ``apply_delta`` rebinds live sessions so post-delta queries are fresh —
  no stale cache hits survive the mutation;
* graph versions: a delta repairs copies and publishes them with one
  swap, a repair that raises publishes nothing, a load that races a
  delta never installs an oracle of the old graph, and a state machine
  over load, query, delta, failing delta and eviction checks every
  answer against a rebuild.
"""

from __future__ import annotations

import copy
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.core.dynamic as dynamic
from repro.core import ChromLandIndex, PowCovIndex
from repro.engine import execute_batch
from repro.graph.delta import GraphDelta
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.serve import GraphRegistry, UnknownGraphError, UnknownOracleError
from repro.store.cache import IndexStore
from repro.store.format import FormatError


def path_graph(n: int = 6, label: int = 0, num_labels: int = 2):
    edges = [(i, i + 1, label) for i in range(n - 1)]
    return EdgeLabeledGraph.from_edges(n, edges, num_labels=num_labels)


def build_powcov(graph):
    # Every vertex as landmark: a vertex cover, so answers are exact.
    return PowCovIndex(graph, range(graph.num_vertices)).build()


@pytest.fixture()
def graph():
    return path_graph()


@pytest.fixture()
def oracle(graph):
    return build_powcov(graph)


class TestRegistration:
    def test_unknown_graph_and_oracle(self, graph, oracle):
        registry = GraphRegistry()
        with pytest.raises(UnknownGraphError):
            registry.session("missing", "powcov")
        registry.register("g", graph, {"powcov": oracle})
        with pytest.raises(UnknownOracleError):
            registry.session("g", "chromland")

    def test_describe_lists_kinds(self, graph, oracle):
        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": oracle})
        registry.register_loader("g", "lazy", lambda: oracle)
        (entry,) = registry.describe()
        assert entry["oracles"] == ["lazy", "powcov"]
        assert entry["loaded"] == ["powcov"]  # lazy not yet touched

    def test_reregister_drops_sessions(self, graph, oracle):
        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": oracle})
        registry.session("g", "powcov")
        assert registry.session_keys() == [("g", "powcov")]
        registry.register("g", graph, {"powcov": oracle})
        assert registry.session_keys() == []


class TestSessionLRU:
    def test_eviction_under_max_sessions(self, graph):
        registry = GraphRegistry(max_sessions=2)
        oracle = build_powcov(graph)
        for name in ("a", "b", "c"):
            registry.register(name, graph, {"powcov": oracle})
            registry.session(name, "powcov")
        assert registry.session_evictions == 1
        assert registry.session_keys() == [("b", "powcov"), ("c", "powcov")]

    def test_touch_refreshes_recency(self, graph):
        registry = GraphRegistry(max_sessions=2)
        oracle = build_powcov(graph)
        for name in ("a", "b"):
            registry.register(name, graph, {"powcov": oracle})
            registry.session(name, "powcov")
        registry.session("a", "powcov")  # refresh: now b is the LRU
        registry.register("c", graph, {"powcov": oracle})
        registry.session("c", "powcov")
        assert registry.session_keys() == [("a", "powcov"), ("c", "powcov")]

    def test_evicted_session_is_rebuilt_on_demand(self, graph):
        registry = GraphRegistry(max_sessions=1)
        oracle = build_powcov(graph)
        registry.register("a", graph, {"powcov": oracle})
        registry.register("b", graph, {"powcov": oracle})
        first = registry.session("a", "powcov")
        registry.session("b", "powcov")  # evicts a
        rebuilt = registry.session("a", "powcov")
        assert rebuilt is not first
        assert rebuilt.run([(0, 5, 1)]) == [5.0]


class TestStoreBackedLoads:
    def test_round_trip_through_store(self, tmp_path, graph, oracle):
        store = IndexStore(tmp_path)
        store.save(oracle)
        registry = GraphRegistry()
        registry.register_store("g", graph, store, kinds=("powcov",))
        session = registry.session("g", "powcov")
        assert session.run([(0, 5, 1)]) == [5.0]
        assert registry.load_counts[("g", "powcov")] == 1

    def test_missing_index_raises_unknown_oracle(self, tmp_path, graph):
        registry = GraphRegistry()
        registry.register_store(
            "g", graph, IndexStore(tmp_path), kinds=("powcov",)
        )
        with pytest.raises(UnknownOracleError):
            registry.oracle("g", "powcov")

    def test_fingerprint_mismatch_rejected_on_load(self, tmp_path, graph):
        """A store file renamed to another graph's key must not serve: the
        embedded fingerprint is re-verified at load time."""
        other = path_graph(n=6, label=1)  # same shape, different labels
        store = IndexStore(tmp_path)
        saved = store.save(build_powcov(other))
        # Masquerade: give the foreign index the filename the registered
        # graph's loader will look up.
        disguised = store.path_for("powcov", graph)
        os.rename(saved, disguised)

        registry = GraphRegistry()
        registry.register_store("g", graph, store, kinds=("powcov",))
        with pytest.raises(FormatError):
            registry.oracle("g", "powcov")


class TestSingleFlight:
    def test_concurrent_first_touch_loads_once(self, graph, oracle):
        """N threads racing on a cold oracle: the loader runs exactly once
        and every thread gets the same instance."""
        loads = []
        gate = threading.Event()

        def slow_loader():
            gate.wait(timeout=10)
            time.sleep(0.05)  # hold the flight open across all arrivals
            loads.append(1)
            return oracle

        registry = GraphRegistry()
        registry.register("g", graph)
        registry.register_loader("g", "powcov", slow_loader)

        results = [None] * 8
        def touch(i):
            results[i] = registry.oracle("g", "powcov")

        threads = [
            threading.Thread(target=touch, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(timeout=30)
        assert len(loads) == 1
        assert registry.load_counts[("g", "powcov")] == 1
        assert all(r is oracle for r in results)

    def test_failed_load_releases_the_flight(self, graph, oracle):
        attempts = []

        def flaky_loader():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return oracle

        registry = GraphRegistry()
        registry.register("g", graph)
        registry.register_loader("g", "powcov", flaky_loader)
        with pytest.raises(RuntimeError):
            registry.oracle("g", "powcov")
        assert registry.oracle("g", "powcov") is oracle  # retry succeeds


class TestDeltaRebind:
    def test_rebind_after_delta_serves_fresh_answers(self, graph):
        """Warm the cache, mutate the graph, and re-ask the same query:
        the answer must reflect the mutation (no stale cache hit)."""
        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": build_powcov(graph)})
        session = registry.session("g", "powcov")
        assert session.run([(0, 5, 1)]) == [5.0]  # now cached

        info = registry.apply_delta(
            "g", GraphDelta(insertions=((0, 5, 0),))
        )
        assert info["repaired"] == ["powcov"]
        assert registry.session("g", "powcov") is session  # same warm session
        assert session.run([(0, 5, 1)]) == [1.0]  # shortcut, not the stale 5.0
        assert session.run([(0, 5, 1)])[0] == 1.0  # now a cache hit

    def test_delta_bumps_listed_version(self, graph):
        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": build_powcov(graph)})
        before = registry.describe()[0]["version"]
        registry.apply_delta("g", GraphDelta(insertions=((0, 2, 1),)))
        after = registry.describe()[0]["version"]
        assert after == before + 1

    def test_delta_on_unknown_graph(self):
        registry = GraphRegistry()
        with pytest.raises(UnknownGraphError):
            registry.apply_delta("nope", GraphDelta(insertions=((0, 1, 0),)))

    def test_store_backed_deltas_answer_like_a_rebuild(self, tmp_path):
        """Two deltas against store-opened PowCov and ChromLand indexes
        (the serve CLI's ``--index`` recipe at its default scale): each
        repair must answer exactly like a rebuild on the new graph."""
        from repro.core.dynamic import rebuild_reference
        from repro.engine import execute_batch
        from repro.graph.datasets import load_dataset
        from repro.serve.__main__ import build_oracle
        from repro.workloads.streams import size_skewed_stream

        graph, _ = load_dataset("biogrid-sim", scale=0.2, seed=7)
        store = IndexStore(tmp_path)
        kinds = ("powcov", "chromland")
        for kind in kinds:
            store.save(build_oracle(kind, graph, 16, 7))
        registry = GraphRegistry()
        registry.register_store("bio", graph, store, kinds=kinds)
        warm = size_skewed_stream(graph, 200, seed=0)
        for kind in kinds:
            registry.session("bio", kind).run(warm)

        first = GraphDelta(insertions=((231, 375, 0),))
        u = 231
        v, label = int(graph.neighbors_of(u)[0]), int(graph.labels_of(u)[0])
        second = GraphDelta(deletions=((u, v, label),))
        for delta in (first, second):
            info = registry.apply_delta("bio", delta)
            assert info["repaired"] == sorted(kinds)
            queries = warm + size_skewed_stream(registry.graph("bio"), 300, seed=1)
            for kind in kinds:
                oracle = registry.oracle("bio", kind)
                want = execute_batch(rebuild_reference(oracle), queries)
                assert registry.session("bio", kind).run(queries) == want, kind

    def test_unloaded_store_loaders_dropped_after_delta(
        self, tmp_path, graph
    ):
        """A never-loaded store file describes the pre-delta fingerprint;
        after the delta its kind must vanish rather than serve stale."""
        store = IndexStore(tmp_path)
        store.save(build_powcov(graph))
        registry = GraphRegistry()
        registry.register_store("g", graph, store, kinds=("powcov",))
        registry.apply_delta("g", GraphDelta(insertions=((0, 3, 1),)))
        assert registry.oracle_kinds("g") == []
        with pytest.raises(UnknownOracleError):
            registry.oracle("g", "powcov")


def build_chromland(graph):
    return ChromLandIndex(graph, [0, 3], [0, 0]).build()


def cow_tables(kind, oracle):
    """Every array the oracle answers from (an exact oracle has none)."""
    if kind == "powcov":
        return [oracle.table.key, oracle.table.dist, oracle.table.mask]
    if kind == "chromland":
        return [oracle.mono, oracle.bi]
    if kind == "naive":
        return [row for per_mask in oracle._distances for row in per_mask.values()]
    return []


class TestVersions:
    QUERIES = [(0, 5, 1), (5, 0, 3), (1, 4, 1), (2, 2, 1), (0, 3, 2)]

    def test_load_racing_a_delta_never_serves_the_old_graph(self, graph):
        """A load that finishes after a delta replaced its graph is
        dropped: the kind serves the new graph or is gone, and the graph
        keeps taking deltas."""
        started, release = threading.Event(), threading.Event()

        def slow_loader():
            started.set()
            release.wait(timeout=30)
            return build_chromland(graph)

        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": build_powcov(graph)})
        registry.register_loader("g", "chromland", slow_loader)
        outcome = {}

        def load():
            try:
                outcome["oracle"] = registry.oracle("g", "chromland")
            except UnknownOracleError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=load)
        thread.start()
        assert started.wait(timeout=30)
        registry.apply_delta("g", GraphDelta(insertions=((0, 5, 0),)))
        release.set()
        thread.join(timeout=30)

        current = registry.graph("g")
        assert current.version == 1
        assert "oracle" not in outcome or outcome["oracle"].graph is current
        try:
            served = registry.oracle("g", "chromland")
        except UnknownOracleError:
            pass
        else:
            assert served.graph is current
        assert registry.run("g", "powcov", [(0, 5, 1)]) == [1.0]
        registry.apply_delta("g", GraphDelta(insertions=((1, 4, 0),)))
        assert registry.graph("g").version == 2

    def test_failed_repair_publishes_nothing(self, graph, monkeypatch):
        """``repair_index`` raising on the second of two oracles leaves the
        version, both oracles and both sessions as they were."""
        oracles = {"powcov": build_powcov(graph), "chromland": build_chromland(graph)}
        registry = GraphRegistry()
        registry.register("g", graph, oracles)
        sessions = {kind: registry.session("g", kind) for kind in oracles}
        for kind in oracles:
            sessions[kind].run(self.QUERIES)
        repair_index = dynamic.repair_index
        calls = []

        def fail_second(index, new_graph):
            calls.append(index)
            if len(calls) == 2:
                raise RuntimeError("injected repair failure")
            return repair_index(index, new_graph)

        monkeypatch.setattr(dynamic, "repair_index", fail_second)
        delta = GraphDelta(insertions=((0, 5, 0),))
        with pytest.raises(RuntimeError, match="injected"):
            registry.apply_delta("g", delta)
        monkeypatch.setattr(dynamic, "repair_index", repair_index)

        assert registry.graph("g") is graph
        assert registry.describe()[0]["version"] == 0
        for kind, oracle in oracles.items():
            assert registry.oracle("g", kind) is oracle
            assert oracle.graph is graph
            assert registry.session("g", kind) is sessions[kind]
            assert sessions[kind].oracle is oracle

        registry.apply_delta("g", delta)
        for kind in oracles:
            repaired = registry.oracle("g", kind)
            assert repaired.graph is registry.graph("g")
            want = execute_batch(dynamic.rebuild_reference(repaired), self.QUERIES)
            assert sessions[kind].run(self.QUERIES) == want

    @pytest.mark.parametrize("kind", ["powcov", "chromland", "naive", "exact"])
    def test_repairing_a_copy_leaves_the_oracle_alone(self, graph, kind):
        """Copy-on-write for every family the serve CLI builds: the old
        oracle's tables and graph stay bit-identical."""
        from repro.graph.delta import apply_delta
        from repro.serve.__main__ import build_oracle

        oracle = build_oracle(kind, graph, 3, 7)
        attributes = dict(vars(oracle))
        tables = [np.array(table) for table in cow_tables(kind, oracle)]
        new_graph = apply_delta(graph, GraphDelta(insertions=((0, 5, 0),)))
        repaired = copy.copy(oracle)
        dynamic.repair_index(repaired, new_graph)

        assert repaired.graph is new_graph
        assert vars(oracle).keys() == attributes.keys()
        for name, value in attributes.items():
            assert vars(oracle)[name] is value, name
        after = cow_tables(kind, oracle)
        assert len(after) == len(tables)
        for old, now in zip(tables, after):
            assert old.dtype == now.dtype and np.array_equal(old, now)
        if kind != "exact":
            assert any(
                not np.array_equal(old, new)
                for old, new in zip(tables, cow_tables(kind, repaired))
            ), "the delta changed no table; the check would be vacuous"
        assert oracle.query(0, 5, 1) == 5.0
        assert repaired.query(0, 5, 1) < 5.0  # the shortcut serves


MACHINE_KINDS = ("powcov", "chromland")
MACHINE_LANDMARKS = [0, 4, 8, 11]
MACHINE_COLORS = [0, 1, 2, 0]


def machine_oracle(kind, graph):
    if kind == "powcov":
        return PowCovIndex(graph, MACHINE_LANDMARKS).build()
    return ChromLandIndex(graph, MACHINE_LANDMARKS, MACHINE_COLORS).build()


def draw_delta(data, graph):
    """One valid single-op delta against ``graph``."""
    n, num_labels = graph.num_vertices, graph.num_labels
    edges = sorted(
        (u, int(v), int(label))
        for u in range(n)
        for v, label in zip(graph.neighbors_of(u), graph.labels_of(u))
        if u < int(v)
    )
    pairs = {(u, v) for u, v, _label in edges}
    op = data.draw(st.sampled_from(["insert", "delete", "relabel"]))
    if op == "insert" or not edges:
        u, v = data.draw(
            st.sampled_from(
                [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
            )
        )
        return GraphDelta(insertions=((u, v, data.draw(st.integers(0, num_labels - 1))),))
    u, v, label = data.draw(st.sampled_from(edges))
    if op == "delete":
        return GraphDelta(deletions=((u, v, label),))
    free = [x for x in range(num_labels) if (u, v, x) not in edges]
    if not free:  # every label already joins u and v
        return GraphDelta(deletions=((u, v, label),))
    return GraphDelta(relabels=((u, v, label, data.draw(st.sampled_from(free))),))


class RegistryVersions(RuleBasedStateMachine):
    """Load, query, delta, failing delta and eviction over one graph.

    Every answer must equal ``execute_batch`` on an oracle rebuilt from
    scratch on the registry's current graph.
    """

    def __init__(self):
        super().__init__()
        graph = labeled_erdos_renyi(12, 20, num_labels=3, seed=5)
        self.registry = GraphRegistry(max_sessions=1)
        self.registry.register("g", graph)
        for kind in MACHINE_KINDS:
            self.registry.register_loader(
                "g", kind, lambda kind=kind: machine_oracle(kind, graph)
            )
        #: kinds the registry can still serve, and the loaded ones
        self.available = set(MACHINE_KINDS)
        self.loaded = set()

    @rule(kind=st.sampled_from(MACHINE_KINDS))
    def load(self, kind):
        if kind not in self.available:
            with pytest.raises(UnknownOracleError):
                self.registry.oracle("g", kind)
            return
        self.registry.oracle("g", kind)
        self.loaded.add(kind)

    @rule(
        kind=st.sampled_from(MACHINE_KINDS),
        queries=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 7)),
            min_size=1,
            max_size=12,
        ),
    )
    def query(self, kind, queries):
        if kind not in self.available:
            with pytest.raises(UnknownOracleError):
                self.registry.run("g", kind, queries)
            return
        answers = self.registry.run("g", kind, queries)
        self.loaded.add(kind)
        rebuilt = machine_oracle(kind, self.registry.graph("g"))
        assert answers == execute_batch(rebuilt, queries)

    @rule(kind=st.sampled_from(MACHINE_KINDS))
    def evict(self, kind):
        if kind in self.available:
            self.registry.session("g", kind)
            self.loaded.add(kind)
            assert self.registry.session_keys() == [("g", kind)]

    @rule(data=st.data())
    def delta(self, data):
        version = self.registry.graph("g").version
        info = self.registry.apply_delta(
            "g", draw_delta(data, self.registry.graph("g"))
        )
        assert info["version"] == version + 1
        assert info["repaired"] == sorted(self.loaded)
        self.available = set(self.loaded)

    @precondition(lambda self: self.loaded)
    @rule(data=st.data())
    def failing_delta(self, data):
        graph = self.registry.graph("g")
        before = {kind: self.registry.oracle("g", kind) for kind in self.loaded}
        repair_index = dynamic.repair_index
        calls = []

        def fail_last(index, new_graph):
            calls.append(index)
            if len(calls) == len(before):
                raise RuntimeError("injected repair failure")
            return repair_index(index, new_graph)

        dynamic.repair_index = fail_last
        try:
            with pytest.raises(RuntimeError, match="injected"):
                self.registry.apply_delta("g", draw_delta(data, graph))
        finally:
            dynamic.repair_index = repair_index
        assert self.registry.graph("g") is graph
        for kind, oracle in before.items():
            assert self.registry.oracle("g", kind) is oracle
            assert oracle.graph is graph

    @invariant()
    def loaded_oracles_serve_the_current_graph(self):
        graph = self.registry.graph("g")
        assert self.registry.oracle_kinds("g") == sorted(self.available)
        for kind in self.loaded:
            assert self.registry.oracle("g", kind).graph is graph
        for name, kind in self.registry.session_keys():
            assert self.registry.session(name, kind).oracle.graph is graph


TestRegistryVersions = RegistryVersions.TestCase
TestRegistryVersions.settings = settings(
    max_examples=int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "10")),
    stateful_step_count=15,
    deadline=None,
)
