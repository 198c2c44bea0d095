"""Experiment orchestration: build an index, evaluate it, time everything.

The harness functions here are consumed by :mod:`repro.eval.tables` /
:mod:`repro.eval.figures` (and the benchmark suite) to regenerate the
paper's Tables 2-4 and Figure 6 rows.  Each function returns plain
dataclasses so callers can render, assert on, or serialize them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..baselines import BidirectionalBFSBaseline, LabelConstrainedCH
from ..core.chromland import ChromLandIndex, local_search_selection, majority_colors, random_selection
from ..core.naive import NaivePowersetIndex
from ..core.powcov import PowCovIndex
from ..graph.labeled_graph import EdgeLabeledGraph
from ..landmarks import select_landmarks
from ..obs.profiling import profile_phase
from ..obs.trace import span
from ..store.cache import IndexStore
from ..workloads.queries import Workload
from .metrics import OracleMetrics, evaluate_oracle, time_oracle

__all__ = [
    "IndexRun",
    "run_powcov",
    "run_chromland",
    "run_naive",
    "baseline_query_seconds",
    "speedup_factor",
]


@dataclass(frozen=True)
class IndexRun:
    """Result of building + evaluating one index configuration."""

    index_name: str
    num_landmarks: int
    build_seconds: float
    metrics: OracleMetrics
    speedup: float
    #: average entries stored per landmark-vertex pair (PowCov/naive only).
    avg_entries_per_pair: float = 0.0

    @property
    def per_landmark_build_seconds(self) -> float:
        return self.build_seconds / max(1, self.num_landmarks)


def baseline_query_seconds(
    graph: EdgeLabeledGraph,
    workload: Workload,
    limit: int = 100,
    include_ch: bool = True,
    ch_degree_limit: int = 16,
) -> float:
    """Per-query seconds of the *fastest* exact baseline (paper's choice).

    Runs bidirectional BFS and (optionally) the Rice–Tsotras-style CH over
    a workload prefix and returns the better mean.  On every non-road graph
    in this reproduction bidirectional BFS wins, mirroring the paper.
    """
    bidi = time_oracle(BidirectionalBFSBaseline(graph), workload, limit=limit)
    if not include_ch:
        return bidi
    try:
        ch = LabelConstrainedCH(graph, degree_limit=ch_degree_limit).build()
        ch_time = time_oracle(ch, workload, limit=min(limit, 30))
    except Exception:  # CH build can be impractical on dense graphs
        return bidi
    return min(bidi, ch_time)


def speedup_factor(baseline_seconds: float, metrics: OracleMetrics) -> float:
    """Speed-up of the index over the exact baseline (Table 4, last row)."""
    if metrics.mean_query_seconds <= 0:
        return float("inf")
    return baseline_seconds / metrics.mean_query_seconds


def run_powcov(
    graph: EdgeLabeledGraph,
    workload: Workload,
    k: int,
    strategy: str = "greedy-mvc",
    seed: int | None = 0,
    baseline_seconds: float | None = None,
    builder: str | None = None,
    parallel: int | None = None,
    index_store: "IndexStore | None" = None,
) -> IndexRun:
    """Build a PowCov index with ``k`` landmarks and evaluate it.

    ``parallel`` is forwarded to :meth:`PowCovIndex.build` (``None`` is
    serial; the CLI passes its ``--workers`` choice), keeping the built
    index bit-for-bit identical either way.  ``builder=None`` runs
    the production wave builder; ``"traverse"`` and ``"brute"`` build the
    same index more slowly.

    ``index_store`` (the CLI passes the store its ``--save-index`` /
    ``--load-index`` flags open; ``None`` always rebuilds) short-circuits
    the build: a cached index for this exact (graph, k, strategy, seed) is
    loaded instead of rebuilt — ``build_seconds`` then measures the load —
    and a freshly built index is persisted back.  Loaded indexes answer
    queries bit-identically to freshly built ones, so the evaluated
    metrics are unchanged; a loaded index serves straight off the mapped
    file.
    """
    tag = f"k{k}-{strategy}-s{seed}"
    started = time.perf_counter()
    index = index_store.load("powcov", graph, tag=tag) if index_store is not None else None
    if index is None:
        landmarks = select_landmarks(graph, k, strategy=strategy, seed=seed)
        with span("eval.powcov_build", k=k, strategy=strategy), profile_phase(
            f"powcov-build-k{k}"
        ):
            index = PowCovIndex(graph, landmarks, builder=builder).build(
                parallel=parallel
            )
        if index_store is not None:
            index_store.save(index, tag=tag)
    build_seconds = time.perf_counter() - started
    with profile_phase(f"powcov-query-k{k}"):
        metrics = evaluate_oracle(index, workload)
    if baseline_seconds is None:
        baseline_seconds = baseline_query_seconds(graph, workload)
    return IndexRun(
        index_name=f"powcov[{strategy}]",
        num_landmarks=k,
        build_seconds=build_seconds,
        metrics=metrics,
        speedup=speedup_factor(baseline_seconds, metrics),
        avg_entries_per_pair=index.average_entries_per_pair(),
    )


def run_chromland(
    graph: EdgeLabeledGraph,
    workload: Workload,
    k: int,
    selection: str = "local-search",
    iterations: int = 2000,
    seed: int | None = 0,
    baseline_seconds: float | None = None,
    query_mode: str = "auxiliary",
    parallel: int | None = None,
    index_store: "IndexStore | None" = None,
) -> IndexRun:
    """Build a ChromLand index with ``k`` landmarks and evaluate it.

    ``selection`` is one of:

    * ``"local-search"`` — the paper's k-median local search (Section 4.3);
    * ``"random"`` — random landmarks with random colors (B-Rnd);
    * ``"random-majority"`` — random landmarks, majority-incident colors;
    * ``"degree-majority"`` / ``"degree-random"`` — top-degree landmarks
      with majority / random colors (B-Best candidates of Section 5.3).

    ``index_store`` behaves as in :func:`run_powcov`: a cached index for
    this exact configuration is loaded instead of re-selected and rebuilt,
    and fresh builds are persisted back.
    """
    import numpy as np

    tag = f"k{k}-{selection}-i{iterations}-s{seed}-{query_mode}"
    started = time.perf_counter()
    index = index_store.load("chromland", graph, tag=tag) if index_store is not None else None
    if index is None:
        if selection == "local-search":
            result = local_search_selection(graph, k, iterations=iterations, seed=seed)
            landmarks, colors = result.landmarks, result.colors
        elif selection == "random":
            result = random_selection(graph, k, seed=seed, color_mode="random")
            landmarks, colors = result.landmarks, result.colors
        elif selection == "random-majority":
            result = random_selection(graph, k, seed=seed, color_mode="majority")
            landmarks, colors = result.landmarks, result.colors
        elif selection in ("degree-majority", "degree-random"):
            landmarks = select_landmarks(graph, k, strategy="degree", seed=seed)
            if selection == "degree-majority":
                colors = majority_colors(graph, landmarks)
            else:
                rng = np.random.default_rng(seed)
                colors = [int(c) for c in rng.integers(0, graph.num_labels, size=k)]
        else:
            raise ValueError(f"unknown ChromLand selection {selection!r}")
        with span("eval.chromland_build", k=k, selection=selection), profile_phase(
            f"chromland-build-k{k}"
        ):
            index = ChromLandIndex(
                graph, landmarks, colors, query_mode=query_mode
            ).build(parallel=parallel)
        if index_store is not None:
            index_store.save(index, tag=tag)
    build_seconds = time.perf_counter() - started
    with profile_phase(f"chromland-query-k{k}"):
        metrics = evaluate_oracle(index, workload)
    if baseline_seconds is None:
        baseline_seconds = baseline_query_seconds(graph, workload)
    return IndexRun(
        index_name=f"chromland[{selection}]",
        num_landmarks=k,
        build_seconds=build_seconds,
        metrics=metrics,
        speedup=speedup_factor(baseline_seconds, metrics),
    )


def run_naive(
    graph: EdgeLabeledGraph,
    workload: Workload,
    k: int,
    strategy: str = "greedy-mvc",
    seed: int | None = 0,
    baseline_seconds: float | None = None,
) -> IndexRun:
    """Build the naive powerset index (Table 2's straw man) and evaluate."""
    landmarks = select_landmarks(graph, k, strategy=strategy, seed=seed)
    started = time.perf_counter()
    with span("eval.naive_build", k=k):
        index = NaivePowersetIndex(graph, landmarks).build()
    build_seconds = time.perf_counter() - started
    metrics = evaluate_oracle(index, workload)
    if baseline_seconds is None:
        baseline_seconds = baseline_query_seconds(graph, workload)
    return IndexRun(
        index_name="naive-powerset",
        num_landmarks=k,
        build_seconds=build_seconds,
        metrics=metrics,
        speedup=speedup_factor(baseline_seconds, metrics),
        avg_entries_per_pair=index.average_entries_per_pair(),
    )
