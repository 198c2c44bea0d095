"""Dynamic-graph evaluation: incremental repair vs. rebuild, temporal sweeps.

Not part of the paper's (static) evaluation — this report exercises the
versioned mutation layer the repo grows on top of it.  Two measurements
per dataset stand-in:

* **mixed query/update serving** — a size-skewed query stream with
  single-edge deltas interleaved (:func:`repro.workloads.streams.
  mixed_update_stream`) drained through the batch engine; each delta is
  absorbed by incremental repair (:func:`repro.core.dynamic.repair_index`)
  and the report records how much of the index was reused;
* **time-sliced temporal queries** — edges get synthetic validity
  windows, one oracle is repaired forward across the snapshot sequence
  (:class:`repro.workloads.streams.SnapshotOracleSequence`), and answers
  are spot-checked bit-identical against a from-scratch build on the
  final snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.dynamic import repair_index
from ..core.powcov import PowCovIndex
from ..graph.datasets import load_dataset
from ..graph.labeled_graph import EdgeLabeledGraph
from ..landmarks import select_landmarks
from ..perf.parallel import ParallelConfig
from ..workloads.streams import (
    SnapshotOracleSequence,
    TemporalEdge,
    mixed_update_stream,
    run_stream_throughput,
    run_temporal_queries,
    temporal_query_stream,
)
from .tables import render_rows

__all__ = ["TemporalReportRow", "temporal_report", "render_temporal_report"]

#: Dataset stand-ins exercised by the report (small enough for tier-2 CI).
_REPORT_DATASETS = ("biogrid-sim", "dblp-sim")


@dataclass(frozen=True)
class TemporalReportRow:
    """One dataset's mixed-stream and snapshot-sweep measurements."""

    dataset: str
    num_vertices: int
    num_edges: int
    updates: int
    queries_per_second: float
    update_seconds: float
    rebuild_seconds: float
    answers_migrated: int
    windows: int
    temporal_queries: int
    sweep_seconds: float
    landmarks_clean: int
    landmarks_repaired: int
    landmarks_resweep: int


def _undirected_edges(graph: EdgeLabeledGraph) -> list[tuple[int, int, int]]:
    edges: list[tuple[int, int, int]] = []
    for u in range(graph.num_vertices):
        for neighbor, label in zip(graph.neighbors_of(u), graph.labels_of(u)):
            if u < int(neighbor):
                edges.append((u, int(neighbor), int(label)))
    return edges


def _temporal_edge_set(
    graph: EdgeLabeledGraph, num_windows: int, churn: float, seed: int
) -> list[TemporalEdge]:
    """Assign validity windows: most edges persistent, a churn slice cycling.

    A ``churn`` fraction of edges gets a random sub-interval of the window
    range; the rest span every window, keeping the snapshots connected
    enough to be interesting.
    """
    rng = np.random.default_rng(seed)
    edges: list[TemporalEdge] = []
    for u, v, label in _undirected_edges(graph):
        if rng.random() < churn and num_windows > 1:
            start = int(rng.integers(num_windows))
            end = start + 1 + int(rng.integers(num_windows - start))
            edges.append(TemporalEdge(u, v, label, start, end))
        else:
            edges.append(TemporalEdge(u, v, label, 0, num_windows))
    return edges


def temporal_report(
    scale: float = 0.5,
    num_windows: int = 6,
    num_updates: int = 20,
    k: int = 6,
    num_queries: int = 400,
    seed: int = 7,
    parallel: "ParallelConfig | int | None" = None,
) -> list[TemporalReportRow]:
    """One row per dataset: mixed-stream and snapshot-sweep measurements.

    ``parallel`` is passed to every from-scratch PowCov build.
    """
    if num_windows < 2:
        raise ValueError("num_windows must be >= 2")
    if num_updates < 1:
        raise ValueError("num_updates must be >= 1")
    rows: list[TemporalReportRow] = []
    for name in _REPORT_DATASETS:
        graph, _spec = load_dataset(name, scale=scale, seed=seed)
        landmarks = select_landmarks(graph, k, strategy="greedy-mvc", seed=seed)

        # Mixed query/update serving.
        index = PowCovIndex(graph, landmarks).build(parallel=parallel)
        build_started = time.perf_counter()
        PowCovIndex(graph, landmarks).build(parallel=parallel)
        rebuild_seconds = time.perf_counter() - build_started
        stream = mixed_update_stream(
            graph, num_queries=num_queries, num_updates=num_updates, seed=seed
        )
        _answers, report = run_stream_throughput(index, stream)

        # Snapshot sweep across the window sequence.
        edges = _temporal_edge_set(graph, num_windows, churn=0.15, seed=seed)
        sequence = SnapshotOracleSequence(
            graph.num_vertices,
            edges,
            graph.num_labels,
            lambda g: PowCovIndex(g, landmarks).build(parallel=parallel),
        )
        queries = temporal_query_stream(sequence, num_queries // 4, seed=seed)
        sweep_started = time.perf_counter()
        answers = run_temporal_queries(sequence, queries)
        sweep_seconds = time.perf_counter() - sweep_started
        # Spot-check: the repaired-forward oracle matches a fresh build on
        # the final snapshot it reached.
        final = PowCovIndex(sequence.graph, landmarks).build(parallel=parallel)
        tail = [q for q in queries if q.window == sequence.window][:25]
        for query in tail:
            expected = final.query(query.source, query.target, query.label_mask)
            got = sequence.query(query.source, query.target, query.label_mask)
            if got != expected:
                raise AssertionError(
                    f"temporal sweep diverged from rebuild on {query}"
                )
        stats = sequence.repair_stats
        rows.append(TemporalReportRow(
            dataset=name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            updates=report.num_updates,
            queries_per_second=round(report.queries_per_second, 1),
            update_seconds=round(report.update_seconds, 4),
            rebuild_seconds=round(rebuild_seconds, 4),
            answers_migrated=report.answers_migrated,
            windows=num_windows,
            temporal_queries=len(answers),
            sweep_seconds=round(sweep_seconds, 4),
            landmarks_clean=stats.landmarks_clean if stats else 0,
            landmarks_repaired=stats.landmarks_repaired if stats else 0,
            landmarks_resweep=stats.landmarks_resweep if stats else 0,
        ))
    return rows


def render_temporal_report(rows: list[TemporalReportRow]) -> str:
    headers = [
        "dataset", "n", "m", "updates", "q/s", "repair s", "rebuild s",
        "migrated", "windows", "clean", "repaired", "resweep",
    ]
    body = [
        [
            row.dataset, str(row.num_vertices), str(row.num_edges),
            str(row.updates), f"{row.queries_per_second:,.0f}",
            f"{row.update_seconds:.3f}", f"{row.rebuild_seconds:.3f}",
            str(row.answers_migrated), str(row.windows),
            str(row.landmarks_clean), str(row.landmarks_repaired),
            str(row.landmarks_resweep),
        ]
        for row in rows
    ]
    return (
        "Dynamic graphs: mixed update streams and temporal snapshot sweeps\n"
        "('repair s' = total incremental-repair time across all updates;\n"
        " 'rebuild s' = one from-scratch index build for comparison;\n"
        " clean/repaired/resweep = landmark-level repair scope over the\n"
        " snapshot sweep)\n"
        + render_rows(headers, body)
    )
