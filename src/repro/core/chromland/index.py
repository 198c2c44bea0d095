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
from ...graph.labelsets import full_mask, label_bit, np_label_bits
from ...graph.traversal import UNREACHABLE
from ...kernels import BITSET_LANE_ROWS, kernel_name
from ...obs.trace import span
from ...perf.batched import batched_constrained_bfs
from ...perf.parallel import run_tasks, worker_count
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
    def build(self, parallel: int | None = None) -> "ChromLandIndex":
        """Run the ``k`` mono-chromatic and ``k (|L*|-1)`` bi-chromatic BFS.

        ``|L*|`` is the number of *distinct* colors actually assigned;
        bi-chromatic traversals are shared across all landmarks of the same
        target color.  The sweeps are :meth:`run_sweeps` with every label
        touched; ``parallel`` threads (``None``/``1`` serial, ``0`` every
        core) run contiguous chunks of them.
        """
        with span(
            "chromland.build", workers=worker_count(parallel), kernel=kernel_name()
        ) as build_span:
            build_span.count("landmarks", self.num_landmarks)
            build_span.count("colors", len(set(self.colors.tolist())))
            swept, _kept = self.run_sweeps(
                self.graph, full_mask(self.graph.num_labels), parallel
            )
            build_span.count("sweeps", swept)
        self._built = True
        return self

    def run_sweeps(
        self,
        graph: EdgeLabeledGraph,
        touched_labels: int,
        parallel: int | None = None,
    ) -> tuple[int, int]:
        """Run on ``graph`` every sweep whose mask meets ``touched_labels``.

        The sweep list of Section 4: per landmark ``x``, the sweep over
        ``{c(x)}`` (on directed graphs also over the reversed graph, for
        ``mono_in``) and one sweep over ``{c(x), c'}`` per other assigned
        color ``c'``.  A sweep whose mask avoids ``touched_labels`` sees
        the same label-restricted subgraph as before and keeps its cells.

        All sweeps run through the batched multi-source kernel
        (:func:`repro.perf.batched.batched_constrained_bfs`), which
        amortizes the per-level CSR gathers across landmarks; ``parallel``
        threads run contiguous chunks of sweeps (results are reassembled
        in sweep order, so the tables are bit-for-bit identical to a
        serial run).  At most one thread per ``BITSET_LANE_ROWS`` (64)
        sweeps: the bit-parallel kernel carries 64 rows per word and costs
        about as much for a part of a word as for all of it, so a list
        that fits one word is one kernel call.

        The rows land in fresh tables when no sweep is kept and in copies
        of the current ones otherwise; ``mono``, ``mono_in``, ``bi`` and
        ``graph`` are assigned together once every sweep has finished, so
        no array a reader or a store mapping holds is ever written.
        Returns ``(sweeps run, sweeps kept)``.
        """
        k, n = self.num_landmarks, graph.num_vertices
        directed = graph.directed
        targets_of = {
            color: np.nonzero(self.colors == color)[0]
            for color in sorted(set(self.colors.tolist()))
        }
        # One job per sweep: (graph_index, source, mask, landmarks_only),
        # and where its row goes: (table, landmark row, bi target columns).
        # ``landmarks_only`` jobs return just the distances at the landmark
        # vertices (all a bi-chromatic row needs), not the full array.
        sweeps: list[
            tuple[tuple[int, int, int, bool], tuple[str, int, np.ndarray | None]]
        ] = []
        for i, (x, color) in enumerate(
            zip(self.landmarks.tolist(), self.colors.tolist())
        ):
            own = label_bit(color)
            sweeps.append(((0, x, own, False), ("mono", i, None)))
            if directed:
                sweeps.append(((1, x, own, False), ("mono_in", i, None)))
            for other, targets in targets_of.items():
                if other != color:
                    sweeps.append(
                        ((0, x, own | label_bit(other), True), ("bi", i, targets))
                    )
        run = [sweep for sweep in sweeps if sweep[0][2] & touched_labels]
        kept = len(sweeps) - len(run)
        if kept:
            self._require_built()
            if not run:
                self.graph = graph
                return 0, kept

        def table(current: np.ndarray | None, rows: int) -> np.ndarray:
            if kept:
                return np.array(current)
            return np.full((k, rows), UNREACHABLE, dtype=np.int32)

        tables = {"mono": table(self.mono, n), "bi": table(self.bi, k)}
        if directed:
            tables["mono_in"] = table(self.mono_in, n)
        workers = min(worker_count(parallel), -(-len(run) // BITSET_LANE_ROWS))
        results = run_tasks(
            _chromland_chunk_task,
            [job for job, _slot in run],
            graphs=(graph, graph.reversed()) if directed else (graph,),
            extra=self.landmarks,
            parallel=workers,
        )
        # A bi cell ``(i, j)`` and its mirror ``(j, i)`` share one mask, so
        # both run or both are kept; on undirected graphs BFS distances are
        # symmetric, so ``bi`` comes out symmetric with no extra pass.
        for (_job, (name, i, targets)), row in zip(run, results):
            if targets is None:
                tables[name][i] = row
            else:
                tables[name][i, targets] = row[targets]
        self.graph, self.mono, self.mono_in, self.bi = (
            graph, tables["mono"], tables.get("mono_in"), tables["bi"]
        )
        return len(run), kept

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

    def _query(self, source: int, target: int, label_mask: int) -> float:
        return self._query_answer(source, target, label_mask).estimate

    def _query_answer(self, source: int, target: int, label_mask: int) -> QueryAnswer:
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
    graphs: tuple[EdgeLabeledGraph, ...], items, landmarks: np.ndarray
) -> list[np.ndarray]:
    """Run a chunk of ChromLand sweeps as batched multi-source BFS.

    Each item is ``(graph_index, source, mask, landmarks_only)``; all items
    sharing a graph become one :func:`batched_constrained_bfs` call, which
    runs them as one kernel sweep (bit-parallel from four rows up, one
    sparse BFS per row below).  ``landmarks`` are the landmark vertices a
    ``landmarks_only`` item keeps.
    """
    by_graph: dict[int, list[int]] = {}
    for position, (graph_index, _source, _mask, _landmarks_only) in enumerate(items):
        by_graph.setdefault(graph_index, []).append(position)
    results: list[np.ndarray | None] = [None] * len(items)
    for graph_index, positions in by_graph.items():
        sources = [items[p][1] for p in positions]
        masks = [items[p][2] for p in positions]
        dist = batched_constrained_bfs(graphs[graph_index], sources, masks=masks)
        for row, p in enumerate(positions):
            full_row = dist[row]
            results[p] = full_row[landmarks] if items[p][3] else full_row
    return results
