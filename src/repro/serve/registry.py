"""Multi-graph registry: warm query sessions over loaded indexes.

The registry is the serving layer's state: a set of named graphs, each
with one or more oracle families, served through warm
:class:`~repro.engine.QuerySession`\\ s.  Three registration styles:

* **in-memory** — :meth:`GraphRegistry.register` with already-built
  oracles (tests, notebooks, the differential harness's wire axis);
* **lazy loaders** — :meth:`register_loader` with a zero-argument
  callable, invoked **single-flight** on first touch: when N concurrent
  requests race on a cold oracle, exactly one loads it and the rest wait
  for that load, so a multi-gigabyte index never deserializes twice;
* **store-backed** — :meth:`register_store` wires the loaders to a
  fingerprint-addressed :class:`~repro.store.cache.IndexStore`, so the
  REPROIDX files written by builds and the eval CLI's ``--save-index``
  serve directly.  The store's embedded-fingerprint verification runs on
  every load: an index file built for a different graph is rejected
  (:class:`~repro.store.format.FormatError`), never silently served.

Sessions are cached per ``(graph, oracle)`` key with LRU eviction under
``max_sessions``; sessions count into the registry's ``engine.*``
counters as they run, so eviction loses no engine accounting.
:meth:`apply_delta` is the hot-reload path: it
applies a :class:`~repro.graph.delta.GraphDelta`, incrementally repairs
every loaded oracle (:func:`repro.core.dynamic.repair_index`), and
rebinds the live sessions — in-flight caches migrate or invalidate per
:meth:`QuerySession.rebind` semantics, so no stale answer survives.

The registry is thread-safe: the asyncio server executes engine work on
a thread pool, and loads/rebinds synchronize on internal locks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.types import DistanceOracle
from ..engine import QuerySession
from ..graph.delta import GraphDelta, apply_delta
from ..graph.labeled_graph import EdgeLabeledGraph
from ..obs.metrics import registry as _metrics_registry

if TYPE_CHECKING:
    from ..store.cache import IndexStore

__all__ = ["GraphRegistry", "UnknownGraphError", "UnknownOracleError"]


class UnknownGraphError(KeyError):
    """Query for a graph name that was never registered."""


class UnknownOracleError(KeyError):
    """Query for an oracle family the graph does not provide."""


@dataclass
class _GraphEntry:
    graph: EdgeLabeledGraph
    oracles: dict[str, DistanceOracle] = field(default_factory=dict)
    loaders: dict[str, Callable[[], DistanceOracle]] = field(
        default_factory=dict
    )

    def oracle_kinds(self) -> list[str]:
        return sorted(set(self.oracles) | set(self.loaders))


class GraphRegistry:
    """Named graphs + lazily loaded oracles + warm LRU'd sessions."""

    def __init__(
        self,
        max_sessions: int = 32,
        cache_size: int = 4096,
        plan_cache_size: int = 128,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.cache_size = cache_size
        self.plan_cache_size = plan_cache_size
        self._entries: dict[str, _GraphEntry] = {}
        self._sessions: OrderedDict[tuple[str, str], QuerySession] = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self._inflight: dict[tuple[str, str], threading.Event] = {}
        #: (graph, kind) -> number of times the loader actually ran;
        #: the single-flight tests pin this at 1 under concurrency.
        self.load_counts: dict[tuple[str, str], int] = {}
        #: sessions dropped by the LRU cap over this registry's lifetime.
        self.session_evictions = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        graph: EdgeLabeledGraph | None = None,
        oracles: dict[str, DistanceOracle] | None = None,
    ) -> None:
        """Register ``name``, optionally with pre-built oracles.

        ``graph`` may be omitted when ``oracles`` is given (it is taken
        from the first oracle).  Registering an existing name replaces
        its entry and drops its sessions.
        """
        oracles = dict(oracles or {})
        if graph is None:
            if not oracles:
                raise ValueError("register() needs a graph or oracles")
            graph = next(iter(oracles.values())).graph
        with self._lock:
            self._entries[name] = _GraphEntry(graph=graph, oracles=oracles)
            self._drop_sessions(name)

    def register_loader(
        self, name: str, kind: str, loader: Callable[[], DistanceOracle]
    ) -> None:
        """Attach a lazy oracle loader to an already-registered graph."""
        with self._lock:
            self._entry(name).loaders[kind] = loader

    def register_store(
        self,
        name: str,
        graph: EdgeLabeledGraph,
        store: "IndexStore",
        kinds: Iterable[str] = ("powcov", "chromland"),
        tag: str = "default",
    ) -> None:
        """Register ``graph`` with loaders over a fingerprint-keyed store.

        Each listed kind loads on first touch via ``store.load`` (which
        re-verifies the file's embedded fingerprint against ``graph``);
        a kind with no file in the store raises
        :class:`UnknownOracleError` at load time, not at registration.
        """
        self.register(name, graph)
        for kind in kinds:
            self.register_loader(
                name, kind, self._store_loader(name, kind, store, graph, tag)
            )

    @staticmethod
    def _store_loader(
        name: str,
        kind: str,
        store: "IndexStore",
        graph: EdgeLabeledGraph,
        tag: str,
    ) -> Callable[[], DistanceOracle]:
        def load() -> DistanceOracle:
            index = store.load(kind, graph, tag=tag)
            if index is None:
                raise UnknownOracleError(
                    f"no {kind!r} index for graph {name!r} in "
                    f"{store.directory!r}"
                )
            return index

        return load

    def unregister(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)
            self._drop_sessions(name)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _entry(self, name: str) -> _GraphEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownGraphError(name) from None

    def graph_names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def graph(self, name: str) -> EdgeLabeledGraph:
        with self._lock:
            return self._entry(name).graph

    def oracle_kinds(self, name: str) -> list[str]:
        """Every oracle family ``name`` can serve (loaded or lazy)."""
        with self._lock:
            return self._entry(name).oracle_kinds()

    def describe(self) -> list[dict[str, Any]]:
        """One JSON-clean info dict per registered graph (``GET /graphs``)."""
        with self._lock:
            out = []
            for name in sorted(self._entries):
                entry = self._entries[name]
                graph = entry.graph
                out.append({
                    "name": name,
                    "num_vertices": int(graph.num_vertices),
                    "num_edges": int(graph.num_edges),
                    "num_labels": int(graph.num_labels),
                    "directed": bool(graph.directed),
                    "version": int(getattr(graph, "version", 0)),
                    "oracles": entry.oracle_kinds(),
                    "loaded": sorted(entry.oracles),
                    "sessions": [
                        kind for (n, kind) in self._sessions if n == name
                    ],
                })
            return out

    # ------------------------------------------------------------------
    # Single-flight oracle loading
    # ------------------------------------------------------------------
    def oracle(self, name: str, kind: str) -> DistanceOracle:
        """The named oracle, loading it on first touch (single-flight)."""
        key = (name, kind)
        while True:
            with self._lock:
                entry = self._entry(name)
                oracle = entry.oracles.get(kind)
                if oracle is not None:
                    return oracle
                loader = entry.loaders.get(kind)
                if loader is None:
                    raise UnknownOracleError(
                        f"graph {name!r} has no {kind!r} oracle "
                        f"(available: {entry.oracle_kinds()})"
                    )
                waiter = self._inflight.get(key)
                if waiter is None:
                    # We are the loading leader for this key.
                    waiter = threading.Event()
                    self._inflight[key] = waiter
                    break
            # Another thread is loading this key: wait, then re-check
            # (re-raising through a fresh load attempt if theirs failed).
            waiter.wait()
        try:
            loaded = loader()
            with self._lock:
                self.load_counts[key] = self.load_counts.get(key, 0) + 1
                entry.oracles[kind] = loaded
            _metrics_registry().counter("serve.oracles_loaded").inc()
            return loaded
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            waiter.set()

    # ------------------------------------------------------------------
    # Warm sessions (LRU)
    # ------------------------------------------------------------------
    def session(self, name: str, kind: str) -> QuerySession:
        """The warm session for ``(name, kind)``, creating it on demand."""
        key = (name, kind)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                return session
        oracle = self.oracle(name, kind)  # may load outside the lock
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = QuerySession(
                    oracle,
                    cache_size=self.cache_size,
                    plan_cache_size=self.plan_cache_size,
                )
                self._sessions[key] = session
                _metrics_registry().gauge("serve.sessions").set(
                    len(self._sessions)
                )
            self._sessions.move_to_end(key)
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self.session_evictions += 1
                _metrics_registry().counter("serve.session_evictions").inc()
                _metrics_registry().gauge("serve.sessions").set(
                    len(self._sessions)
                )
            return session

    def session_keys(self) -> list[tuple[str, str]]:
        with self._lock:
            return list(self._sessions)

    def _drop_sessions(self, name: str) -> None:
        for key in [k for k in self._sessions if k[0] == name]:
            del self._sessions[key]

    # ------------------------------------------------------------------
    # Hot reload: dynamic-graph deltas
    # ------------------------------------------------------------------
    def apply_delta(self, name: str, delta: GraphDelta) -> dict[str, Any]:
        """Mutate a graph in place: repair loaded oracles, rebind sessions.

        Every *loaded* oracle of the graph is incrementally repaired onto
        the new version (:func:`repro.core.dynamic.repair_index`); lazy
        loaders that never fired stay lazy — their store files describe
        the old fingerprint and would be rejected, so they are dropped.
        Live sessions rebind, migrating still-valid cached answers and
        invalidating the rest (no stale answers, tested in
        ``tests/test_serve_registry.py``).
        """
        from ..core.dynamic import repair_index  # local: heavy import

        with self._lock:
            entry = self._entry(name)
            new_graph = apply_delta(entry.graph, delta)
            for kind, oracle in entry.oracles.items():
                repair_index(oracle, new_graph)
                session = self._sessions.get((name, kind))
                if session is not None:
                    session.rebind(oracle)
            entry.graph = new_graph
            # Unloaded store files target the pre-delta fingerprint; they
            # can never serve the mutated graph, so forget the loaders.
            entry.loaders = {
                kind: loader
                for kind, loader in entry.loaders.items()
                if kind in entry.oracles
            }
            _metrics_registry().counter("serve.deltas_applied").inc()
            return {
                "graph": name,
                "version": int(getattr(new_graph, "version", 0)),
                "repaired": sorted(entry.oracles),
                "num_edges": int(new_graph.num_edges),
            }
