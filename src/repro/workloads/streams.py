"""Query-stream generators beyond the paper's evaluation recipe.

The Section 5 workload (:mod:`repro.workloads.queries`) draws uniform label
sets of every size for random connected pairs — right for benchmarking,
but deployed systems see different distributions.  These generators model
the serving-side streams used by the examples and extension benchmarks:

* :func:`size_skewed_stream` — label-set sizes follow a geometric law
  (most user contexts are small);
* :func:`locality_biased_stream` — endpoint pairs are sampled within a
  bounded BFS ball (sessions explore neighborhoods, not uniform pairs);
* :func:`fixed_context_stream` — one constraint set for the whole stream
  (a single tenant's context), endpoints uniform.

None of these compute exact distances — they produce raw
``(source, target, label_mask)`` triples for throughput-style runs; use
:func:`repro.workloads.generate_workload` when ground truth is needed.
:func:`run_stream_throughput` drives any stream through an engine
:class:`~repro.engine.QuerySession` and reports queries/second plus the
session's cache counters.

Dynamic workloads
-----------------
Two extensions ride on the versioned-graph layer
(:mod:`repro.graph.delta` + :mod:`repro.core.dynamic`):

* **mixed query/update streams** — :func:`mixed_update_stream` interleaves
  :class:`~repro.graph.delta.GraphDelta` items with query triples, and
  :func:`run_stream_throughput` absorbs each delta in place (incremental
  repair + session rebind) before continuing to serve;
* **time-sliced temporal queries** — edges carry validity windows
  (:class:`TemporalEdge`), :class:`SnapshotOracleSequence` maintains one
  oracle across the window sequence by applying the between-window deltas
  instead of rebuilding per snapshot, and :func:`run_temporal_queries`
  answers ⟨s, t, C, window⟩ streams against it.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.types import DistanceOracle

if TYPE_CHECKING:
    from ..core.dynamic import RepairStats
from ..graph.delta import GraphDelta, apply_delta
from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import full_mask
from ..graph.traversal import UNREACHABLE, constrained_bfs
from .queries import random_label_set

__all__ = [
    "size_skewed_stream",
    "locality_biased_stream",
    "fixed_context_stream",
    "StreamReport",
    "run_stream_throughput",
    "mixed_update_stream",
    "TemporalEdge",
    "TemporalQuery",
    "SnapshotOracleSequence",
    "temporal_query_stream",
    "run_temporal_queries",
]


def size_skewed_stream(
    graph: EdgeLabeledGraph,
    num_queries: int,
    seed: int | None = 0,
    success_probability: float = 0.5,
) -> list[tuple[int, int, int]]:
    """Uniform endpoint pairs with geometrically distributed |C|.

    ``P(|C| = s) ∝ (1 - p)^(s-1)`` truncated at ``|L|`` — small contexts
    dominate, mirroring interactive query logs.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    if not 0 < success_probability < 1:
        raise ValueError("success_probability must be in (0, 1)")
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(num_queries):
        size = 1 + int(rng.geometric(success_probability)) - 1
        size = min(max(size, 1), graph.num_labels)
        mask = random_label_set(rng, graph.num_labels, size)
        s = int(rng.integers(graph.num_vertices))
        t = int(rng.integers(graph.num_vertices))
        queries.append((s, t, mask))
    return queries


def locality_biased_stream(
    graph: EdgeLabeledGraph,
    num_queries: int,
    radius: int = 4,
    seed: int | None = 0,
) -> list[tuple[int, int, int]]:
    """Pairs sampled within a BFS ball of ``radius`` around random centers.

    Produces the short-distance-heavy distribution typical of exploration
    sessions; the constraint is the full label set of each ball's edges.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    if radius < 1:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    queries: list[tuple[int, int, int]] = []
    attempts = 0
    while len(queries) < num_queries and attempts < 50 * num_queries:
        attempts += 1
        center = int(rng.integers(graph.num_vertices))
        dist = constrained_bfs(graph, center)
        in_ball = np.nonzero((dist != UNREACHABLE) & (dist <= radius))[0]
        if len(in_ball) < 2:
            continue
        per_center = min(8, num_queries - len(queries))
        mask = full_mask(graph.num_labels)
        for _ in range(per_center):
            s, t = rng.choice(in_ball, size=2, replace=False)
            queries.append((int(s), int(t), mask))
    if len(queries) < num_queries:
        raise RuntimeError("could not populate the stream; graph too sparse")
    return queries


def fixed_context_stream(
    graph: EdgeLabeledGraph,
    label_mask: int,
    num_queries: int,
    seed: int | None = 0,
) -> Iterator[tuple[int, int, int]]:
    """An endless-style stream with one constraint set (lazily generated)."""
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    if label_mask <= 0:
        raise ValueError("label_mask must be non-empty")
    rng = np.random.default_rng(seed)
    for _ in range(num_queries):
        s = int(rng.integers(graph.num_vertices))
        t = int(rng.integers(graph.num_vertices))
        yield (s, t, label_mask)


# ----------------------------------------------------------------------
# Throughput measurement through the batch engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamReport:
    """Result of one :func:`run_stream_throughput` pass."""

    num_queries: int
    elapsed_seconds: float
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    masks_planned: int
    #: deltas absorbed mid-stream (mixed query/update mode only).
    num_updates: int = 0
    #: wall-clock spent inside repair + rebind, included in
    #: ``elapsed_seconds``.
    update_seconds: float = 0.0
    #: cached answers carried across updates by the rebind repair path.
    answers_migrated: int = 0

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.num_queries / self.elapsed_seconds

    @property
    def hit_rate(self) -> float:
        probed = self.cache_hits + self.cache_misses
        return self.cache_hits / probed if probed else 0.0

    def describe(self) -> str:
        text = (
            f"{self.num_queries} queries in {self.elapsed_seconds:.3f}s "
            f"({self.queries_per_second:,.0f} q/s, "
            f"hit rate {100.0 * self.hit_rate:.1f}%, "
            f"{self.masks_planned} masks planned)"
        )
        if self.num_updates:
            text += (
                f" + {self.num_updates} updates "
                f"({self.update_seconds:.3f}s repair, "
                f"{self.answers_migrated} answers migrated)"
            )
        return text


def run_stream_throughput(
    oracle: DistanceOracle,
    stream: "Iterable[tuple[int, int, int] | GraphDelta]",
    batch_size: int = 1024,
    cache_size: int = 4096,
    session=None,
) -> tuple[list[float], StreamReport]:
    """Drain ``stream`` through a :class:`~repro.engine.QuerySession`.

    Returns the answers (submission order, bit-identical to a scalar
    ``oracle.query`` loop) together with a :class:`StreamReport` of the
    wall-clock throughput and the session's cache counters.  Pass an
    existing ``session`` to measure warm-cache replays; otherwise a fresh
    session with ``cache_size`` answer entries is created.

    **Mixed query/update mode**: stream items may also be
    :class:`~repro.graph.delta.GraphDelta` objects (see
    :func:`mixed_update_stream`).  Each delta is absorbed in place — the
    pending query batch is flushed, the oracle is incrementally repaired
    onto the mutated graph (:func:`repro.core.dynamic.repair_index`), and
    the session rebinds, migrating still-valid cached answers.  Queries
    after a delta are answered against the updated graph.
    """
    from ..engine import QuerySession

    if session is None:
        session = QuerySession(oracle, cache_size=cache_size)
    before = dict(session.stats.counters)
    num_updates = 0
    update_seconds = 0.0
    answers: list[float] = []
    batch: list[tuple[int, int, int]] = []
    started = time.perf_counter()
    for item in stream:
        if isinstance(item, GraphDelta):
            if batch:
                answers.extend(session.run(batch))
                batch = []
            update_started = time.perf_counter()
            _absorb_delta(session, item)
            update_seconds += time.perf_counter() - update_started
            num_updates += 1
            continue
        batch.append(item)
        if len(batch) >= batch_size:
            answers.extend(session.run(batch))
            batch = []
    if batch:
        answers.extend(session.run(batch))
    elapsed = time.perf_counter() - started

    def delta(name: str) -> int:
        return session.stats.counters.get(name, 0) - before.get(name, 0)

    report = StreamReport(
        num_queries=len(answers),
        elapsed_seconds=elapsed,
        cache_hits=delta("cache_hits"),
        cache_misses=delta("cache_misses"),
        cache_evictions=delta("cache_evictions"),
        masks_planned=delta("masks_planned"),
        num_updates=num_updates,
        update_seconds=update_seconds,
        answers_migrated=delta("rebind_answers_migrated"),
    )
    return answers, report


def _absorb_delta(session, delta: GraphDelta) -> None:
    """Apply ``delta`` to the session's oracle in place and rebind."""
    from ..core.dynamic import repair_index

    new_graph = apply_delta(session.oracle.graph, delta)
    repair_index(session.oracle, new_graph)
    session.rebind(session.oracle)


def mixed_update_stream(
    graph: EdgeLabeledGraph,
    num_queries: int,
    num_updates: int,
    seed: int | None = 0,
    success_probability: float = 0.5,
) -> "Iterator[tuple[int, int, int] | GraphDelta]":
    """Interleave size-skewed queries with random single-edge deltas.

    Updates are spread evenly through the stream; each is a valid
    single-op :class:`~repro.graph.delta.GraphDelta` (insertion, deletion,
    or relabel) against the graph *as mutated so far*, so the stream can
    be fed straight to :func:`run_stream_throughput`'s mixed mode.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    if num_updates < 0:
        raise ValueError("num_updates must be >= 0")
    rng = np.random.default_rng(seed)
    num_labels = graph.num_labels
    num_vertices = graph.num_vertices
    # Track the evolving edge set (u < v) so generated ops stay valid.
    edges: set[tuple[int, int, int]] = set()
    for u in range(num_vertices):
        for neighbor, label in zip(graph.neighbors_of(u), graph.labels_of(u)):
            if u < int(neighbor):
                edges.add((u, int(neighbor), int(label)))

    def random_op() -> GraphDelta | None:
        for _ in range(64):
            kind = int(rng.integers(3))
            if kind == 0:
                u = int(rng.integers(num_vertices))
                v = int(rng.integers(num_vertices))
                if u == v:
                    continue
                u, v = min(u, v), max(u, v)
                label = int(rng.integers(num_labels))
                if (u, v, label) in edges:
                    continue
                edges.add((u, v, label))
                return GraphDelta(insertions=((u, v, label),))
            if not edges:
                continue
            pool = sorted(edges)
            u, v, label = pool[int(rng.integers(len(pool)))]
            if kind == 1:
                edges.remove((u, v, label))
                return GraphDelta(deletions=((u, v, label),))
            new_label = int(rng.integers(num_labels))
            if new_label == label or (u, v, new_label) in edges:
                continue
            edges.remove((u, v, label))
            edges.add((u, v, new_label))
            return GraphDelta(relabels=((u, v, label, new_label),))
        return None

    every = max(1, num_queries // max(1, num_updates)) if num_updates else 0
    emitted_updates = 0
    for i in range(num_queries):
        if (
            num_updates
            and emitted_updates < num_updates
            and i > 0
            and i % every == 0
        ):
            op = random_op()
            if op is not None:
                emitted_updates += 1
                yield op
        size = 1 + int(rng.geometric(success_probability)) - 1
        size = min(max(size, 1), num_labels)
        mask = random_label_set(rng, num_labels, size)
        source = int(rng.integers(num_vertices))
        target = int(rng.integers(num_vertices))
        yield (source, target, mask)


# ----------------------------------------------------------------------
# Time-sliced temporal queries over a snapshot-oracle sequence
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TemporalEdge:
    """An edge valid on the half-open window interval ``[start, end)``."""

    source: int
    target: int
    label: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"invalid validity interval [{self.start}, {self.end})"
            )

    def active_at(self, window: int) -> bool:
        return self.start <= window < self.end


@dataclass(frozen=True)
class TemporalQuery:
    """A time-sliced query: distance under ``label_mask`` at ``window``."""

    source: int
    target: int
    label_mask: int
    window: int


class SnapshotOracleSequence:
    """One oracle maintained across the snapshots of a temporal graph.

    Instead of building a fresh index per time window, the sequence builds
    once on the window-0 snapshot and *advances*: the edges whose validity
    interval opens or closes between consecutive windows become
    :class:`~repro.graph.delta.GraphDelta` batches, each absorbed by
    :func:`repro.core.dynamic.repair_index`.  Windows are visited in
    order (time only moves forward); :meth:`seek` fast-forwards.

    Parameters
    ----------
    num_vertices, num_labels:
        Fixed across all snapshots (only the edge set is temporal).
    edges:
        The temporal edge set; intervals are half-open ``[start, end)``.
    oracle_factory:
        Builds the oracle for the window-0 snapshot, e.g.
        ``lambda g: PowCovIndex(g, landmarks).build()``.  The same object
        is then repaired forward.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Sequence[TemporalEdge],
        num_labels: int,
        oracle_factory: Callable[[EdgeLabeledGraph], DistanceOracle],
        directed: bool = False,
    ) -> None:
        if num_vertices < 1:
            raise ValueError("num_vertices must be positive")
        self.num_vertices = num_vertices
        self.num_labels = num_labels
        self.directed = directed
        self.edges = tuple(edges)
        self.num_windows = max((e.end for e in self.edges), default=1)
        self.window = 0
        self.graph = EdgeLabeledGraph.from_edges(
            num_vertices,
            self.active_edges(0),
            num_labels=num_labels,
            directed=directed,
        )
        self.oracle = oracle_factory(self.graph)
        #: accumulated repair scope across every advance so far.
        self.repair_stats: "RepairStats | None" = None

    def active_edges(self, window: int) -> list[tuple[int, int, int]]:
        return [
            (e.source, e.target, e.label)
            for e in self.edges
            if e.active_at(window)
        ]

    def _window_delta_ops(
        self, window: int
    ) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
        """(insertions, deletions) taking window-1 to ``window``."""
        opening = [
            (e.source, e.target, e.label)
            for e in self.edges
            if e.start == window
        ]
        closing = [
            (e.source, e.target, e.label)
            for e in self.edges
            if e.end == window
        ]
        return opening, closing

    def advance(self) -> None:
        """Step the oracle from the current window to the next one."""
        from ..core.dynamic import repair_index

        target_window = self.window + 1
        if target_window >= self.num_windows:
            raise ValueError(
                f"window {target_window} is past the last snapshot "
                f"({self.num_windows - 1})"
            )
        opening, closing = self._window_delta_ops(target_window)
        # A single delta may touch each vertex pair only once; chunk the
        # ops so simultaneous changes to parallel edges apply in sequence.
        for delta in _chunk_delta_ops(closing, opening, self.directed):
            new_graph = apply_delta(self.graph, delta)
            stats = repair_index(self.oracle, new_graph)
            self.graph = new_graph
            if self.repair_stats is None:
                self.repair_stats = stats
            else:
                self.repair_stats.combine(stats)
        self.window = target_window

    def seek(self, window: int) -> None:
        """Advance (forward only) until the oracle serves ``window``."""
        if window < self.window:
            raise ValueError(
                f"cannot rewind from window {self.window} to {window}; "
                "snapshots advance monotonically"
            )
        while self.window < window:
            self.advance()

    def query(self, source: int, target: int, label_mask: int) -> float:
        """Distance at the current window."""
        return self.oracle.query(source, target, label_mask)


def _chunk_delta_ops(
    deletions: list[tuple[int, int, int]],
    insertions: list[tuple[int, int, int]],
    directed: bool,
) -> Iterator[GraphDelta]:
    """Split ops into valid deltas, each touching every pair at most once."""
    pending_deletions = list(deletions)
    pending_insertions = list(insertions)
    while pending_deletions or pending_insertions:
        seen: set[tuple[int, int]] = set()
        take_deletions: list[tuple[int, int, int]] = []
        take_insertions: list[tuple[int, int, int]] = []
        deferred_d: list[tuple[int, int, int]] = []
        deferred_i: list[tuple[int, int, int]] = []
        # Deletions go first so a closing and an opening edge on the same
        # pair land in successive deltas in the right order.
        for u, v, label in pending_deletions:
            pair = (u, v) if directed else (min(u, v), max(u, v))
            if pair in seen:
                deferred_d.append((u, v, label))
            else:
                seen.add(pair)
                take_deletions.append((u, v, label))
        for u, v, label in pending_insertions:
            pair = (u, v) if directed else (min(u, v), max(u, v))
            if pair in seen:
                deferred_i.append((u, v, label))
            else:
                seen.add(pair)
                take_insertions.append((u, v, label))
        yield GraphDelta(
            insertions=tuple(take_insertions),
            deletions=tuple(take_deletions),
        )
        pending_deletions = deferred_d
        pending_insertions = deferred_i


def temporal_query_stream(
    sequence: SnapshotOracleSequence,
    num_queries: int,
    seed: int | None = 0,
    success_probability: float = 0.5,
) -> list[TemporalQuery]:
    """Random ⟨s, t, C, window⟩ queries, sorted by window (time-ordered)."""
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    queries: list[TemporalQuery] = []
    for _ in range(num_queries):
        size = 1 + int(rng.geometric(success_probability)) - 1
        size = min(max(size, 1), sequence.num_labels)
        queries.append(
            TemporalQuery(
                source=int(rng.integers(sequence.num_vertices)),
                target=int(rng.integers(sequence.num_vertices)),
                label_mask=random_label_set(rng, sequence.num_labels, size),
                window=int(rng.integers(sequence.num_windows)),
            )
        )
    queries.sort(key=lambda q: q.window)
    return queries


def run_temporal_queries(
    sequence: SnapshotOracleSequence,
    queries: Sequence[TemporalQuery],
) -> list[float]:
    """Answer time-ordered temporal queries against the snapshot sequence.

    Queries must be sorted by window (as :func:`temporal_query_stream`
    returns them) at or after the sequence's current window; the oracle is
    repaired forward between windows, never rebuilt.
    """
    answers: list[float] = []
    for query in queries:
        sequence.seek(query.window)
        answers.append(
            sequence.query(query.source, query.target, query.label_mask)
        )
    return answers
