"""Benchmark: incremental PowCov repair vs. from-scratch rebuild.

The dynamic-graph layer's headline claim: absorbing a **single-edge
insertion** into a built PowCov index (`repro.core.dynamic.repair_powcov`,
which re-sweeps only the rows the delta can change) must beat rebuilding
the index from scratch with the wave kernel by a wide margin on the
Table-3 stand-ins — this suite *enforces* the >= 5x wall-clock bar on
biogrid-sim and dblp-sim, and re-asserts the non-negotiable guarantee on
every comparison: the repaired entries are bit-for-bit identical to a
fresh build (``assert_repair_matches_rebuild``).  Deletions and relabels
take the same repair path; their speedup is recorded in the JSON
trajectory but not enforced.  A final non-benchmark test replays a
randomized insert/delete/relabel sequence through the differential
harness so the bench smoke job exercises the same bit-identity gate the
tier-1 hypothesis suite does.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.dynamic import (
    assert_repair_matches_rebuild,
    repair_index,
    repair_powcov,
)
from repro.core.powcov import PowCovIndex
from repro.graph.datasets import load_dataset
from repro.graph.delta import GraphDelta, apply_delta
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labelsets import full_mask
from repro.landmarks import select_landmarks

from conftest import BENCH_SCALE, BENCH_SEED

#: Landmarks per index; small enough that the rebuild baseline stays
#: tractable at smoke scale, large enough to exercise per-landmark scoping.
BENCH_K = 6


@pytest.fixture(scope="module")
def dblp():
    graph, _spec = load_dataset("dblp-sim", scale=BENCH_SCALE, seed=BENCH_SEED)
    return graph


def _landmarks(graph):
    return select_landmarks(graph, BENCH_K, strategy="greedy-mvc", seed=BENCH_SEED)


def _missing_edge(graph, label=0):
    """A (u, v, label) pair absent from the graph, deterministically."""
    rng = np.random.default_rng(BENCH_SEED)
    n = graph.num_vertices
    while True:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        if not any(
            int(w) == v and int(l) == label
            for w, l in zip(graph.neighbors_of(u), graph.labels_of(u))
        ):
            return u, v, label


def _present_edge(graph):
    for u in range(graph.num_vertices):
        for v, label in zip(graph.neighbors_of(u), graph.labels_of(u)):
            if u < int(v):
                return u, int(v), int(label)
    raise AssertionError("empty bench graph")


def _sample_queries(graph, count=50):
    rng = np.random.default_rng(BENCH_SEED)
    top = full_mask(graph.num_labels)
    return [
        (
            int(rng.integers(graph.num_vertices)),
            int(rng.integers(graph.num_vertices)),
            1 + int(rng.integers(top)),
        )
        for _ in range(count)
    ]


def _timed(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def _compare(benchmark, graph, delta, min_speedup=None, rounds=3):
    """Time repair (on a fresh build each round) against a wave rebuild."""
    landmarks = _landmarks(graph)
    new_graph = apply_delta(graph, delta)

    repair_seconds = float("inf")
    stats = None
    index = None
    for _ in range(rounds):
        index = PowCovIndex(graph, landmarks, builder="wave").build()
        started = time.perf_counter()
        stats = repair_powcov(index, new_graph)
        repair_seconds = min(repair_seconds, time.perf_counter() - started)

    _rebuilt, rebuild_seconds = _timed(
        lambda: PowCovIndex(new_graph, landmarks, builder="wave").build(),
        rounds=rounds,
    )

    # The non-negotiable guarantee, re-asserted on every comparison.
    assert_repair_matches_rebuild(index, queries=_sample_queries(new_graph))

    speedup = rebuild_seconds / repair_seconds
    benchmark.extra_info["repair_seconds"] = repair_seconds
    benchmark.extra_info["rebuild_seconds"] = rebuild_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["delta"] = delta.describe()
    benchmark.extra_info["landmarks_clean"] = stats.landmarks_clean
    benchmark.extra_info["landmarks_resweep"] = stats.landmarks_resweep
    benchmark.extra_info["rows_swept"] = stats.rows_swept
    benchmark.extra_info["masks_dirty"] = stats.masks_dirty
    if min_speedup is not None:
        assert speedup >= min_speedup, (
            f"repair managed only {speedup:.2f}x over the wave rebuild "
            f"(repair {repair_seconds:.4f}s, rebuild {rebuild_seconds:.4f}s); "
            f"the bar is {min_speedup}x"
        )
    # Sample the repair under the benchmark fixture so the JSON row carries
    # a proper timing; each round re-builds untimed, then repairs timed.
    def setup():
        return (PowCovIndex(graph, landmarks, builder="wave").build(),), {}

    benchmark.pedantic(
        lambda idx: repair_powcov(idx, new_graph), setup=setup,
        rounds=2, iterations=1,
    )
    print(
        f"\n[incremental] {delta.describe()}: repair {repair_seconds * 1e3:.1f} ms "
        f"vs rebuild {rebuild_seconds * 1e3:.1f} ms -> {speedup:.1f}x "
        f"(clean/resweep = {stats.landmarks_clean}/"
        f"{stats.landmarks_resweep}, rows swept {stats.rows_swept}, "
        f"masks respliced {stats.masks_dirty})"
    )


def test_insertion_repair_vs_rebuild_biogrid(benchmark, biogrid):
    """Hard >= 5x bar: single-edge insertion on the densest stand-in."""
    delta = GraphDelta(insertions=(_missing_edge(biogrid),))
    _compare(benchmark, biogrid, delta, min_speedup=5.0)


def test_insertion_repair_vs_rebuild_dblp(benchmark, dblp):
    """Hard >= 5x bar: single-edge insertion on the collaboration stand-in."""
    delta = GraphDelta(insertions=(_missing_edge(dblp),))
    _compare(benchmark, dblp, delta, min_speedup=5.0)


def test_deletion_repair_vs_rebuild_biogrid(benchmark, biogrid):
    """Trajectory row: a deletion re-sweeps only the rows where the edge
    is tight (recorded only, not enforced)."""
    delta = GraphDelta(deletions=(_present_edge(biogrid),))
    _compare(benchmark, biogrid, delta)


def test_relabel_repair_vs_rebuild_dblp(benchmark, dblp):
    """Trajectory row: a relabel is delete(old) + insert(new) in one pass."""
    u, v, label = _present_edge(dblp)
    new_label = (label + 1) % dblp.num_labels
    delta = GraphDelta(relabels=((u, v, label, new_label),))
    _compare(benchmark, dblp, delta)


def test_randomized_sequence_stays_bit_identical():
    """Differential gate: a randomized insert/delete/relabel sequence,
    repaired step by step, never diverges from a from-scratch build."""
    graph = labeled_erdos_renyi(120, 340, num_labels=4, seed=BENCH_SEED)
    landmarks = _landmarks(graph)
    index = PowCovIndex(graph, landmarks).build()
    rng = np.random.default_rng(BENCH_SEED)
    edges = set()
    for u in range(graph.num_vertices):
        for v, label in zip(graph.neighbors_of(u), graph.labels_of(u)):
            if u < int(v):
                edges.add((u, int(v), int(label)))
    steps = 0
    while steps < 6:
        kind = int(rng.integers(3))
        u, v = int(rng.integers(120)), int(rng.integers(120))
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        label = int(rng.integers(4))
        if kind == 0 and (u, v, label) not in edges:
            edges.add((u, v, label))
            delta = GraphDelta(insertions=((u, v, label),))
        elif kind == 1 and (u, v, label) in edges:
            edges.remove((u, v, label))
            delta = GraphDelta(deletions=((u, v, label),))
        elif (
            kind == 2
            and (u, v, label) in edges
            and (u, v, (label + 1) % 4) not in edges
        ):
            edges.remove((u, v, label))
            edges.add((u, v, (label + 1) % 4))
            delta = GraphDelta(relabels=((u, v, label, (label + 1) % 4),))
        else:
            continue
        graph = apply_delta(graph, delta)
        repair_index(index, graph)
        steps += 1
    assert_repair_matches_rebuild(index, queries=_sample_queries(graph))
