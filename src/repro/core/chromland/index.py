"""The Chromatic Landmarks (ChromLand) index — Section 4 of the paper.

Each landmark ``x`` is *assigned* a single color ``c(x)``.  The index stores

* for every vertex ``u``: the **mono-chromatic** distance
  ``cd(x, u) = d_{{c(x)}}(x, u)`` to every landmark — computed with one
  ``{c(x)}``-constrained BFS per landmark — and
* for every landmark pair ``(x, y)`` with ``c(x) ≠ c(y)``: the
  **bi-chromatic** distance ``cd(x, y) = d_{{c(x), c(y)}}(x, y)``.

Total storage is ``O(kn)`` — one distance per landmark-vertex pair,
regardless of ``|L|`` — which is the whole point of the index: it sidesteps
the powerset blow-up entirely and pays for it at query time (see
:mod:`repro.core.chromland.query`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ...graph.labeled_graph import EdgeLabeledGraph
from ...graph.labelsets import label_bit, np_label_bits
from ...graph.traversal import UNREACHABLE
from ...kernels import kernel_name
from ...obs.trace import span
from ...perf.batched import batched_constrained_bfs
from ...perf.parallel import ParallelConfig, resolve_parallel, run_tasks
from ..types import DistanceOracle, QueryAnswer
from .query import auxiliary_graph_distance, simple_triangle_distance

__all__ = ["ChromLandIndex"]

_QUERY_MODES = ("auxiliary", "simple")


class ChromLandIndex(DistanceOracle):
    """Chromatic Landmarks index.

    Parameters
    ----------
    landmarks:
        Landmark vertex ids (distinct).
    colors:
        Dense label id assigned to each landmark, parallel to ``landmarks``
        (see :mod:`repro.core.chromland.selection` for the paper's
        local-search selection).
    query_mode:
        ``"auxiliary"`` — Theorem 5: shortest path on the auxiliary graph
        induced by the query (the paper's enhanced strategy, ``O(k^2)``);
        ``"simple"`` — Proposition 2: plain triangle inequality over
        single landmarks (``O(k)``), kept for the query ablation.
    """

    name = "chromland"

    def __init__(
        self,
        graph: EdgeLabeledGraph,
        landmarks: Sequence[int],
        colors: Sequence[int],
        query_mode: str = "auxiliary",
    ):
        super().__init__(graph)
        if len(landmarks) != len(colors):
            raise ValueError("landmarks and colors must be parallel sequences")
        if len(set(landmarks)) != len(landmarks):
            raise ValueError("landmarks must be distinct")
        if query_mode not in _QUERY_MODES:
            raise ValueError(f"query_mode must be one of {_QUERY_MODES}")
        for x in landmarks:
            if not 0 <= x < graph.num_vertices:
                raise ValueError(f"landmark {x} out of range")
        for c in colors:
            if not 0 <= c < graph.num_labels:
                raise ValueError(f"color {c} out of range")
        self.landmarks = np.asarray(list(landmarks), dtype=np.int64)
        self.colors = np.asarray(list(colors), dtype=np.int64)
        self.query_mode = query_mode
        #: ``(k, n)`` mono-chromatic distances landmark→vertex, ``-1`` unreachable.
        self.mono: np.ndarray | None = None
        #: directed graphs only: ``(k, n)`` vertex→landmark distances.
        self.mono_in: np.ndarray | None = None
        #: ``(k, k)`` bi-chromatic distances, ``-1`` unreachable/same color.
        self.bi: np.ndarray | None = None
        #: per-landmark color bit, precomputed for query filtering.
        self._color_bits = np_label_bits(self.colors)
        self._built = False

    @property
    def num_landmarks(self) -> int:
        return len(self.landmarks)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, parallel: "ParallelConfig | int | None" = None) -> "ChromLandIndex":
        """Run the ``k`` mono-chromatic and ``k (|L*|-1)`` bi-chromatic BFS.

        ``|L*|`` is the number of *distinct* colors actually assigned;
        bi-chromatic traversals are shared across all landmarks of the same
        target color.

        All sweeps run through the batched multi-source kernel
        (:func:`repro.perf.batched.batched_constrained_bfs`), which
        amortizes the per-level CSR gathers across landmarks; ``parallel``
        additionally fans chunks of sweeps out over workers (results are
        reassembled in job order, so the tables are bit-for-bit identical
        to a serial build).
        """
        config = resolve_parallel(parallel)
        k = self.num_landmarks
        n = self.graph.num_vertices
        self.mono = np.full((k, n), UNREACHABLE, dtype=np.int32)
        self.bi = np.full((k, k), UNREACHABLE, dtype=np.int32)
        color_values = sorted(set(int(c) for c in self.colors))
        landmarks_by_color = {
            color: np.nonzero(self.colors == color)[0] for color in color_values
        }
        directed = self.graph.directed
        graphs: tuple[EdgeLabeledGraph, ...] = (self.graph,)
        if directed:
            graphs = (self.graph, self.graph.reversed())
            self.mono_in = np.full((k, n), UNREACHABLE, dtype=np.int32)

        # One job per sweep: (graph_index, source, mask, landmarks_only).
        # ``landmarks_only`` jobs return just the distances at the landmark
        # vertices (all a bi-chromatic row needs), not the full array.
        jobs: list[tuple[int, int, int, bool]] = []
        unpackers: list = []
        for i in range(k):
            x = int(self.landmarks[i])
            own_color = int(self.colors[i])
            jobs.append((0, x, label_bit(own_color), False))
            unpackers.append(("mono", i))
            if directed:
                jobs.append((1, x, label_bit(own_color), False))
                unpackers.append(("mono_in", i))
            for other_color in color_values:
                if other_color == own_color:
                    continue
                mask = label_bit(own_color) | label_bit(other_color)
                jobs.append((0, x, mask, True))
                unpackers.append(("bi", i, other_color))
        with span(
            "chromland.build", backend=config.backend, kernel=kernel_name()
        ) as build_span:
            build_span.count("landmarks", k)
            build_span.count("colors", len(color_values))
            build_span.count("sweeps", len(jobs))
            results = run_tasks(
                _chromland_chunk_task,
                jobs,
                graphs=graphs,
                # The kernel resolves to its concrete backend name in the
                # parent, so every worker runs the backend it probed.
                extra={
                    "landmarks": np.asarray(self.landmarks, dtype=np.int64),
                    "kernel": kernel_name(),
                },
                config=config,
            )
        for what, row in zip(unpackers, results):
            if what[0] == "mono":
                self.mono[what[1]] = row
            elif what[0] == "mono_in":
                self.mono_in[what[1]] = row
            else:
                _tag, i, other_color = what
                targets = landmarks_by_color[other_color]
                self.bi[i, targets] = row[targets]
        # cd is symmetric on undirected graphs; keep the best of both runs
        # (they agree there, and on directed graphs this stays an upper
        # bound in each direction).
        if not self.graph.directed:
            both = np.where(self.bi == UNREACHABLE, np.iinfo(np.int32).max, self.bi)
            both = np.minimum(both, both.T)
            self.bi = np.where(both == np.iinfo(np.int32).max, UNREACHABLE, both)
        self._built = True
        return self

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("call build() before querying the index")

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def chromatic_distance(self, landmark_index: int, vertex: int) -> float:
        """``cd(x, u)`` for landmark ``landmark_index`` and vertex ``u``."""
        self._require_built()
        value = int(self.mono[landmark_index, vertex])
        return float(value) if value != UNREACHABLE else float("inf")

    def query(self, source: int, target: int, label_mask: int) -> float:
        return self.query_answer(source, target, label_mask).estimate

    def query_answer(self, source: int, target: int, label_mask: int) -> QueryAnswer:
        self._require_built()
        if source == target:
            return QueryAnswer(estimate=0.0, lower=0.0, upper=0.0)
        if label_mask == 0:
            return QueryAnswer(estimate=float("inf"), lower=float("inf"))
        # Landmarks usable for this query: color inside the constraint set.
        usable = np.nonzero((self._color_bits & label_mask) != 0)[0]
        if len(usable) == 0:
            return QueryAnswer(estimate=float("inf"))
        if self.query_mode == "simple":
            estimate = simple_triangle_distance(
                self.mono, usable, source, target, mono_source=self.mono_in
            )
        else:
            estimate = auxiliary_graph_distance(
                self.mono, self.bi, self.colors, usable, source, target,
                mono_source=self.mono_in,
            )
        # Mono-chromatic distances overestimate d_C, so no valid lower
        # bound can be derived from this index; report the trivial one.
        return QueryAnswer(estimate=estimate, lower=0.0, upper=estimate)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def index_size_entries(self) -> int:
        """Stored distances: one per landmark-vertex pair + landmark pairs."""
        self._require_built()
        k = self.num_landmarks
        return k * self.graph.num_vertices + k * (k - 1) // 2

    def describe(self) -> str:
        return (
            f"{self.name}(k={self.num_landmarks}, mode={self.query_mode}) "
            f"on {self.graph!r}"
        )


def _chromland_chunk_task(
    graphs: tuple[EdgeLabeledGraph, ...], items, extra: dict
) -> list[np.ndarray]:
    """Run a chunk of ChromLand sweeps as batched multi-source BFS.

    Each item is ``(graph_index, source, mask, landmarks_only)``; all items
    sharing a graph become one :func:`batched_constrained_bfs` call, so the
    frontier expansion is amortized across the chunk's sweeps.  Module
    level so the process backend can ship it to workers by reference.
    """
    landmarks = extra["landmarks"]
    kernel = extra.get("kernel")
    by_graph: dict[int, list[int]] = {}
    for position, (graph_index, _source, _mask, _landmarks_only) in enumerate(items):
        by_graph.setdefault(graph_index, []).append(position)
    results: list[np.ndarray | None] = [None] * len(items)
    for graph_index, positions in by_graph.items():
        sources = [items[p][1] for p in positions]
        masks = [items[p][2] for p in positions]
        dist = batched_constrained_bfs(
            graphs[graph_index], sources, masks=masks, kernel=kernel
        )
        for row, p in enumerate(positions):
            full_row = dist[row]
            results[p] = full_row[landmarks] if items[p][3] else full_row
    return results
