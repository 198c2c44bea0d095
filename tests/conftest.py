"""Shared fixtures for the test suite."""

from __future__ import annotations

import math

import pytest

from repro import kernels
from repro.graph.datasets import (
    figure1_graph,
    figure2_graph,
    figure5_graph,
    toy_two_triangles,
)
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.traversal import UNREACHABLE, constrained_bfs

INF = math.inf


@pytest.fixture
def path_graph() -> EdgeLabeledGraph:
    """0 -r- 1 -g- 2 -r- 3 (labels r=0, g=1)."""
    return EdgeLabeledGraph.from_edges(
        4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)], num_labels=2
    )


@pytest.fixture
def two_triangles() -> EdgeLabeledGraph:
    return toy_two_triangles()


@pytest.fixture
def figure1():
    return figure1_graph()


@pytest.fixture
def figure2():
    return figure2_graph()


@pytest.fixture
def figure5():
    return figure5_graph()


@pytest.fixture
def random_graph() -> EdgeLabeledGraph:
    """A reproducible 60-vertex random graph with 4 labels."""
    return labeled_erdos_renyi(60, 150, num_labels=4, seed=42)


@pytest.fixture
def small_graphs() -> list[EdgeLabeledGraph]:
    """A pool of tiny random graphs for exhaustive cross-checks."""
    return [
        labeled_erdos_renyi(25, 50, num_labels=3, seed=s) for s in range(5)
    ]


def exact_constrained_distance(
    graph: EdgeLabeledGraph, source: int, target: int, mask: int
) -> float:
    """Reference oracle: full constrained BFS (slow, trivially correct)."""
    dist = constrained_bfs(graph, source, mask)
    value = int(dist[target])
    return float(value) if value != UNREACHABLE else INF


def all_pairs_all_masks(graph: EdgeLabeledGraph):
    """Yield (s, t, mask, exact) over every vertex pair and label set."""
    num_masks = (1 << graph.num_labels) - 1
    for mask in range(1, num_masks + 1):
        dists = {
            s: constrained_bfs(graph, s, mask) for s in range(graph.num_vertices)
        }
        for s in range(graph.num_vertices):
            for t in range(graph.num_vertices):
                value = int(dists[s][t])
                yield s, t, mask, (float(value) if value != UNREACHABLE else INF)


def make_line(labels: list[int], num_labels: int | None = None) -> EdgeLabeledGraph:
    """Path graph whose i-th edge has ``labels[i]``."""
    edges = [(i, i + 1, label) for i, label in enumerate(labels)]
    return EdgeLabeledGraph.from_edges(
        len(labels) + 1, edges, num_labels=num_labels
    )


def force_numpy_kernel(monkeypatch) -> None:
    """Make ``"auto"`` resolve to numpy by marking cext's probe as failed.

    There is no kernel setting: whole-oracle comparisons across backends
    steer ``"auto"`` this way, and ``monkeypatch`` restores the probe memo.
    """
    monkeypatch.setitem(kernels._probe_failures, "cext", "disabled by test")
    monkeypatch.delitem(kernels._backends, "cext", raising=False)
