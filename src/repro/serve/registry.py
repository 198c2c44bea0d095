"""Multi-graph registry: warm query sessions over published graph versions.

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

Each name maps to one immutable *version*: a graph with the oracles
loaded for it and the loaders still able to serve it.  A register, a
load or a delta builds the next version and publishes it with one swap
under the registry lock; nothing changes a version in place.
:meth:`apply_delta` is the hot-reload path: it applies a
:class:`~repro.graph.delta.GraphDelta`, repairs a shallow copy of every
loaded oracle (:func:`repro.core.dynamic.repair_index`, which publishes
new tables and never writes the old ones), swaps in the new version, and
rebinds the live sessions to the copies — cached answers migrate or
invalidate per :meth:`QuerySession.rebind`, so no stale answer survives.
A repair that raises publishes nothing: the old version keeps serving
and keeps taking deltas.  A load that finishes after a delta replaced
its graph is dropped, never installed over the new version.

Sessions are cached per ``(graph, oracle)`` key with LRU eviction under
``max_sessions``; sessions count into the registry's ``engine.*``
counters as they run, so eviction loses no engine accounting.  Each
session has a lock: :meth:`run` holds it around a batch and
:meth:`apply_delta` around the rebind, so a session runs one batch at a
time and is never rebound under a running batch.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, NamedTuple

from ..core.types import DistanceOracle
from ..engine import QuerySession
from ..graph.delta import GraphDelta, apply_delta
from ..graph.labeled_graph import EdgeLabeledGraph
from ..obs.metrics import registry as _metrics_registry

if TYPE_CHECKING:
    import numpy as np

    from ..store.cache import IndexStore

__all__ = ["GraphRegistry", "UnknownGraphError", "UnknownOracleError"]


class UnknownGraphError(KeyError):
    """Query for a graph name that was never registered."""


class UnknownOracleError(KeyError):
    """Query for an oracle family the graph does not provide."""


@dataclass(frozen=True)
class _Version:
    """One published state of a graph; replaced, never mutated."""

    graph: EdgeLabeledGraph
    oracles: Mapping[str, DistanceOracle] = field(default_factory=dict)
    loaders: Mapping[str, Callable[[], DistanceOracle]] = field(
        default_factory=dict
    )

    def oracle_kinds(self) -> list[str]:
        return sorted(set(self.oracles) | set(self.loaders))


class _Slot(NamedTuple):
    """A warm session and the lock that keeps it single-threaded."""

    session: QuerySession
    lock: threading.Lock


class GraphRegistry:
    """Named graph versions + lazily loaded oracles + warm LRU'd sessions."""

    def __init__(self, max_sessions: int = 32, cache_size: int = 4096) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.cache_size = cache_size
        self._entries: dict[str, _Version] = {}
        self._sessions: OrderedDict[tuple[str, str], _Slot] = OrderedDict()
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
        its version and drops its sessions.
        """
        oracles = dict(oracles or {})
        if graph is None:
            if not oracles:
                raise ValueError("register() needs a graph or oracles")
            graph = next(iter(oracles.values())).graph
        with self._lock:
            self._entries[name] = _Version(graph=graph, oracles=oracles)
            self._drop_sessions(name)

    def register_loader(
        self, name: str, kind: str, loader: Callable[[], DistanceOracle]
    ) -> None:
        """Attach a lazy oracle loader to an already-registered graph."""
        with self._lock:
            version = self._version(name)
            self._entries[name] = replace(
                version, loaders={**version.loaders, kind: loader}
            )

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

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _version(self, name: str) -> _Version:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownGraphError(name) from None

    def graph_names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def graph(self, name: str) -> EdgeLabeledGraph:
        with self._lock:
            return self._version(name).graph

    def oracle_kinds(self, name: str) -> list[str]:
        """Every oracle family ``name`` can serve (loaded or lazy)."""
        with self._lock:
            return self._version(name).oracle_kinds()

    def describe(self) -> list[dict[str, Any]]:
        """One JSON-clean info dict per registered graph (``GET /graphs``)."""
        with self._lock:
            out = []
            for name in sorted(self._entries):
                version = self._entries[name]
                graph = version.graph
                out.append({
                    "name": name,
                    "num_vertices": int(graph.num_vertices),
                    "num_edges": int(graph.num_edges),
                    "num_labels": int(graph.num_labels),
                    "directed": bool(graph.directed),
                    "version": int(getattr(graph, "version", 0)),
                    "oracles": version.oracle_kinds(),
                    "loaded": sorted(version.oracles),
                    "sessions": [
                        kind for (n, kind) in self._sessions if n == name
                    ],
                })
            return out

    # ------------------------------------------------------------------
    # Single-flight oracle loading
    # ------------------------------------------------------------------
    def oracle(self, name: str, kind: str) -> DistanceOracle:
        """The named oracle, loading it on first touch (single-flight).

        A load runs outside the lock and installs its result only while
        the graph it loaded for, and its loader, are still the current
        version's.  Otherwise a delta or a re-registration replaced the
        version mid-load: the result is dropped and the kind looked up
        again on the current version (a delta drops unloaded loaders, so
        that lookup raises :class:`UnknownOracleError`).
        """
        key = (name, kind)
        while True:
            with self._lock:
                version = self._version(name)
                oracle = version.oracles.get(kind)
                if oracle is not None:
                    return oracle
                loader = version.loaders.get(kind)
                if loader is None:
                    raise UnknownOracleError(
                        f"graph {name!r} has no {kind!r} oracle "
                        f"(available: {version.oracle_kinds()})"
                    )
                waiter = self._inflight.get(key)
                if waiter is None:
                    # We are the loading leader for this key.
                    waiter = self._inflight[key] = threading.Event()
                    leader = True
                else:
                    leader = False
            if not leader:
                # Another thread is loading this key: wait, then re-check
                # (re-raising through a fresh load attempt if theirs failed).
                waiter.wait()
                continue
            try:
                loaded = loader()
                installed = False
                with self._lock:
                    self.load_counts[key] = self.load_counts.get(key, 0) + 1
                    current = self._entries.get(name)
                    if (
                        current is not None
                        and current.graph is version.graph
                        and current.loaders.get(kind) is loader
                    ):
                        self._entries[name] = replace(
                            current, oracles={**current.oracles, kind: loaded}
                        )
                        installed = True
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                waiter.set()
            if installed:
                _metrics_registry().counter("serve.oracles_loaded").inc()
                return loaded

    # ------------------------------------------------------------------
    # Warm sessions (LRU)
    # ------------------------------------------------------------------
    def session(self, name: str, kind: str) -> QuerySession:
        """The warm session for ``(name, kind)``, creating it on demand."""
        return self._slot(name, kind).session

    def run(
        self, name: str, kind: str, queries: Sequence[Any] | np.ndarray
    ) -> list[float]:
        """Answer ``queries`` on the warm session, under its lock."""
        slot = self._slot(name, kind)
        with slot.lock:
            return slot.session.run(queries)

    def _slot(self, name: str, kind: str) -> _Slot:
        key = (name, kind)
        while True:
            with self._lock:
                slot = self._sessions.get(key)
                if slot is not None:
                    self._sessions.move_to_end(key)
                    return slot
            oracle = self.oracle(name, kind)  # may load outside the lock
            with self._lock:
                slot = self._sessions.get(key)
                if slot is None:
                    if self._version(name).oracles.get(kind) is not oracle:
                        continue  # a delta replaced the oracle meanwhile
                    slot = _Slot(
                        QuerySession(oracle, cache_size=self.cache_size),
                        threading.Lock(),
                    )
                    self._sessions[key] = slot
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
                return slot

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
        """Publish the graph's next version: repaired copies, one swap.

        Every *loaded* oracle is repaired onto the new graph as a shallow
        copy (:func:`repro.core.dynamic.repair_index`); if any repair
        raises, nothing is published.  Lazy loaders that never fired are
        dropped — their store files describe the old fingerprint and
        would be rejected.  After the swap each live session of the
        graph rebinds to its repaired copy under its own lock, migrating
        still-valid cached answers and invalidating the rest (no stale
        answers, tested in ``tests/test_serve_registry.py``).
        """
        from ..core.dynamic import repair_index  # local: heavy import

        with self._lock:
            version = self._version(name)
            new_graph = apply_delta(version.graph, delta)
            oracles: dict[str, DistanceOracle] = {}
            for kind, oracle in version.oracles.items():
                repaired = copy.copy(oracle)
                repair_index(repaired, new_graph)
                oracles[kind] = repaired
            self._entries[name] = _Version(
                graph=new_graph,
                oracles=oracles,
                loaders={
                    kind: loader
                    for kind, loader in version.loaders.items()
                    if kind in oracles
                },
            )
            for (graph_name, kind), slot in self._sessions.items():
                if graph_name == name:
                    with slot.lock:
                        slot.session.rebind(oracles[kind])
            _metrics_registry().counter("serve.deltas_applied").inc()
            return {
                "graph": name,
                "version": int(getattr(new_graph, "version", 0)),
                "repaired": sorted(oracles),
                "num_edges": int(new_graph.num_edges),
            }
