"""Tests for the ChromLand index and its two query strategies."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.chromland import ChromLandIndex
from repro.core.chromland.query import (
    auxiliary_distance_from_plan,
    auxiliary_graph_distance,
    closure_distances,
    landmark_closure,
    prepare_auxiliary,
    simple_triangle_distance,
)
from repro.engine.executors import ChromLandExecutor
from repro.engine.plan import MaskGroup
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.traversal import UNREACHABLE, constrained_bfs
from repro.kernels import available_kernels, resolve_kernel

from conftest import all_pairs_all_masks, make_line


@pytest.fixture(scope="module")
def built():
    graph = labeled_erdos_renyi(45, 130, num_labels=3, seed=17)
    landmarks = [0, 5, 11, 17, 23, 29, 35, 41]
    colors = [0, 1, 2, 0, 1, 2, 0, 1]
    aux = ChromLandIndex(graph, landmarks, colors).build()
    simple = ChromLandIndex(graph, landmarks, colors, query_mode="simple").build()
    return graph, landmarks, colors, aux, simple


class TestConstruction:
    def test_parallel_arrays_required(self, random_graph):
        with pytest.raises(ValueError, match="parallel"):
            ChromLandIndex(random_graph, [0, 1], [0])

    def test_duplicate_landmarks_rejected(self, random_graph):
        with pytest.raises(ValueError, match="distinct"):
            ChromLandIndex(random_graph, [0, 0], [0, 1])

    def test_color_out_of_range(self, random_graph):
        with pytest.raises(ValueError, match="color"):
            ChromLandIndex(random_graph, [0], [99])

    def test_bad_query_mode(self, random_graph):
        with pytest.raises(ValueError, match="query_mode"):
            ChromLandIndex(random_graph, [0], [0], query_mode="psychic")

    def test_query_before_build(self, random_graph):
        index = ChromLandIndex(random_graph, [0], [0])
        with pytest.raises(RuntimeError):
            index.query(0, 1, 1)


class TestStoredDistances:
    def test_mono_rows_match_constrained_bfs(self, built):
        graph, landmarks, colors, aux, _ = built
        for i, (x, c) in enumerate(zip(landmarks, colors)):
            expected = constrained_bfs(graph, x, 1 << c)
            assert np.array_equal(aux.mono[i], expected)

    def test_bichromatic_symmetric(self, built):
        _, _, _, aux, _ = built
        assert np.array_equal(aux.bi, aux.bi.T)

    def test_bichromatic_values(self, built):
        graph, landmarks, colors, aux, _ = built
        for i, (x, cx) in enumerate(zip(landmarks, colors)):
            for j, (y, cy) in enumerate(zip(landmarks, colors)):
                if i == j or cx == cy:
                    continue
                mask = (1 << cx) | (1 << cy)
                expected = constrained_bfs(graph, x, mask)[y]
                assert aux.bi[i, j] == expected

    def test_chromatic_distance_accessor(self, built):
        graph, landmarks, colors, aux, _ = built
        expected = constrained_bfs(graph, landmarks[0], 1 << colors[0])
        for u in (1, 2, 3):
            want = float(expected[u]) if expected[u] != UNREACHABLE else math.inf
            assert aux.chromatic_distance(0, u) == want


class TestQueryBounds:
    def test_upper_bound_no_false_positives(self, built):
        graph, _, _, aux, simple = built
        for s, t, mask, exact in all_pairs_all_masks(graph):
            if s == t:
                continue
            est_aux = aux.query(s, t, mask)
            est_simple = simple.query(s, t, mask)
            if math.isinf(exact):
                assert math.isinf(est_aux)
                assert math.isinf(est_simple)
            else:
                assert est_aux >= exact
                assert est_simple >= exact

    def test_auxiliary_never_worse_than_simple(self, built):
        graph, _, _, aux, simple = built
        for s in range(0, graph.num_vertices, 4):
            for t in range(1, graph.num_vertices, 5):
                for mask in range(1, 8):
                    assert aux.query(s, t, mask) <= simple.query(s, t, mask)

    def test_same_vertex_and_empty_mask(self, built):
        _, _, _, aux, _ = built
        assert aux.query(4, 4, 7) == 0.0
        assert math.isinf(aux.query(0, 1, 0))

    def test_no_usable_landmark_gives_infinity(self):
        graph = make_line([0, 1], num_labels=3)
        index = ChromLandIndex(graph, [1], [0]).build()
        # Query constraint {label 2}: the single landmark has color 0.
        assert math.isinf(index.query(0, 2, 0b100))


class TestMultiLandmarkComposition:
    def test_figure3_style_two_landmark_path(self):
        """A two-color path answered exactly only via two landmarks."""
        # s -g- x -g- y -o- t with landmarks x (green) and y (orange).
        g = EdgeLabeledGraph.from_edges(
            4, [(0, 1, 0), (1, 2, 0), (2, 3, 1)], num_labels=2
        )
        index = ChromLandIndex(g, [1, 2], [0, 1]).build()
        # Simple strategy: no single landmark sees both s and t.
        simple = ChromLandIndex(g, [1, 2], [0, 1], query_mode="simple").build()
        assert math.isinf(simple.query(0, 3, 0b11))
        # Auxiliary graph composes s->x (green), x->y (green), y->t (orange).
        assert index.query(0, 3, 0b11) == 3.0

    def test_figure5_vertex_cover_insufficient(self, figure5):
        """Figure 5: {x} is a vertex cover but ChromLand cannot be exact."""
        graph, u, x, v = figure5
        for color in range(graph.num_labels):
            index = ChromLandIndex(graph, [x], [color]).build()
            estimate = index.query(u, v, 0b11)
            assert math.isinf(estimate)  # whatever the color, no answer

    def test_same_color_landmarks_do_not_chain(self):
        """Same-color landmark pairs have no auxiliary edge (paper's G_X)."""
        g = make_line([0, 0, 0, 0], num_labels=2)
        index = ChromLandIndex(g, [1, 3], [0, 0]).build()
        assert index.bi[0, 1] == UNREACHABLE
        # Single-landmark bounds still answer the query exactly here.
        assert index.query(0, 4, 0b01) == 4.0


class TestQueryHelpers:
    def test_simple_triangle_empty_usable(self):
        mono = np.zeros((2, 5), dtype=np.int32)
        assert simple_triangle_distance(
            mono, np.array([], dtype=np.int64), 0, 1
        ) == math.inf

    def test_auxiliary_empty_usable(self):
        mono = np.zeros((2, 5), dtype=np.int32)
        bi = np.zeros((2, 2), dtype=np.int32)
        colors = np.array([0, 1])
        assert auxiliary_graph_distance(
            mono, bi, colors, np.array([], dtype=np.int64), 0, 1
        ) == math.inf

    def test_index_size_entries(self, built):
        graph, landmarks, _, aux, _ = built
        k = len(landmarks)
        assert aux.index_size_entries() == k * graph.num_vertices + k * (k - 1) // 2

    def test_describe(self, built):
        _, _, _, aux, _ = built
        assert "chromland" in aux.describe()


# ----------------------------------------------------------------------
# Theorem 5 for a mask group: landmark closure + min-plus
# ----------------------------------------------------------------------
def _random_chromland(directed, k, seed, num_labels=4):
    """A random graph sparse enough for unreachable legs, k landmarks."""
    rng = np.random.default_rng(seed)
    n = max(2 * k, 30)
    edges = [
        (int(u), int(v), int(c))
        for u, v, c in zip(
            rng.integers(n, size=4 * n), rng.integers(n, size=4 * n),
            rng.integers(num_labels, size=4 * n),
        )
        if u != v
    ]
    graph = EdgeLabeledGraph.from_edges(
        n, edges, num_labels=num_labels, directed=directed
    )
    landmarks = rng.choice(n, size=k, replace=False).tolist()
    colors = rng.integers(num_labels, size=k)
    colors[:2] = (0, 1)  # at least two colors, so some mask composes
    return ChromLandIndex(graph, landmarks, colors.tolist()).build(), rng


def _per_query_dijkstra(index, mask, sources, targets, kernel):
    """The reference: one auxiliary Dijkstra per query on ``kernel``."""
    usable = np.nonzero((index._color_bits & mask) != 0)[0]
    plan = prepare_auxiliary(index.bi, index.colors, usable)
    source_table = index.mono if index.mono_in is None else index.mono_in
    out = np.empty(len(sources))
    composed = 0  # answers below the best single-landmark bound
    for q, (s, t) in enumerate(zip(sources, targets)):
        if s == t:
            out[q] = 0.0
            continue
        if mask == 0:
            out[q] = math.inf
            continue
        ds = source_table[usable, s].astype(np.float64)
        dt = index.mono[usable, t].astype(np.float64)
        ds[ds == UNREACHABLE] = np.inf
        dt[dt == UNREACHABLE] = np.inf
        out[q] = auxiliary_distance_from_plan(plan, ds, dt, kernel=kernel)
        composed += bool(len(usable)) and out[q] < (ds + dt).min()
    return out, usable, composed


KERNELS = [
    pytest.param(name, marks=pytest.mark.skipif(
        name not in available_kernels(), reason=f"{name} kernel unavailable"
    ))
    for name in ("numpy", "cext")
]


class TestGroupMatchesDijkstra:
    """Both engine paths — the per-query Dijkstra a mask starts on and the
    closure + min-plus it moves to — equal the scalar Dijkstra bit for
    bit, whatever backend the Dijkstra runs on."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("directed", [False, True],
                             ids=["undirected", "directed"])
    @pytest.mark.parametrize("k", [2, 5, 16, 64])
    def test_bitwise_equal_on_every_mask(self, kernel, directed, k):
        index, rng = _random_chromland(directed, k, seed=100 * k + directed)
        executor = ChromLandExecutor(index)
        backend = resolve_kernel(kernel)
        n = index.graph.num_vertices
        # More queries than one (chunk, k, k) slab holds at k = 64.
        count = 150 if k == 64 else 40
        usable_colors = set()
        composed = 0
        for mask in range(1 << index.graph.num_labels):
            sources = rng.integers(n, size=count)
            targets = rng.integers(n, size=count)
            sources[1:4] = targets[1:4]  # s == t
            want, usable, chained = _per_query_dijkstra(
                index, mask, sources, targets, backend
            )
            plan = executor.prepare_mask(mask)
            # One query first: below k_usable, so it runs the Dijkstra;
            # the rest reach k_usable and close the mask.
            first = executor.execute_group(
                plan, MaskGroup(mask, np.arange(1), sources[:1], targets[:1])
            )
            assert plan.closure is None
            rest = executor.execute_group(
                plan, MaskGroup(mask, np.arange(count - 1), sources[1:], targets[1:])
            )
            colors = len(set(index.colors[usable].tolist()))
            assert (plan.closure is not None) == (colors >= 2), mask
            got = np.concatenate([first, rest])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), mask
            usable_colors.add(min(colors, 2))
            composed += chained
        # Masks with 0, 1 and >= 2 usable colors all occurred, and beyond
        # two landmarks some answers needed a multi-landmark path.
        assert usable_colors == {0, 1, 2}
        assert composed > 0 or k == 2

    def test_closure_waits_for_k_usable_queries(self):
        """Groups below ``k_usable`` queries run the Dijkstra; the closure is
        built once the mask's queries reach ``k_usable`` in total."""
        index, rng = _random_chromland(False, 16, seed=7)
        executor = ChromLandExecutor(index)
        mask = (1 << index.graph.num_labels) - 1
        plan = executor.prepare_mask(mask)
        k_usable = len(plan.usable)
        n = index.graph.num_vertices
        sources = rng.integers(n, size=k_usable)
        targets = (sources + 1 + rng.integers(n - 1, size=k_usable)) % n
        want, _, _ = _per_query_dijkstra(
            index, mask, sources, targets, resolve_kernel("numpy")
        )
        got = []
        for lo, hi in ((0, 5), (5, k_usable - 1), (k_usable - 1, k_usable)):
            got.append(executor.execute_group(
                plan, MaskGroup(mask, np.arange(hi - lo), sources[lo:hi],
                                targets[lo:hi])
            ))
            assert (plan.closure is None) == (hi < k_usable)
        assert plan.auxiliary is None  # the closure replaced the adjacency
        assert np.array_equal(np.concatenate(got).view(np.int64),
                              want.view(np.int64))

    def test_unreachable_legs_and_chunks(self):
        """All-unreachable legs stay inf; a chunked group equals column-wise
        evaluation."""
        rng = np.random.default_rng(3)
        k = 64
        weights = rng.integers(1, 9, size=(k, k)).astype(np.float64)
        weights[rng.random((k, k)) < 0.7] = np.inf
        closure = landmark_closure(weights)
        assert np.all(np.diag(closure) == 0.0)
        count = 300  # 64 queries per chunk at k = 64
        ds = rng.integers(1, 9, size=(k, count)).astype(np.float64)
        dt = rng.integers(1, 9, size=(k, count)).astype(np.float64)
        ds[rng.random(ds.shape) < 0.8] = np.inf
        dt[rng.random(dt.shape) < 0.8] = np.inf
        ds[:, 0] = np.inf
        dt[:, 1] = np.inf
        got = closure_distances(closure, ds, dt)
        assert np.isinf(got[0]) and np.isinf(got[1])
        for q in range(count):
            want = (ds[:, q, None] + closure + dt[None, :, q]).min()
            assert got[q] == want

    @pytest.mark.parametrize("table", ["bi", "mono", "mono_in"])
    def test_float_tables_refused(self, table):
        """The min-plus is exact only over integer distances."""
        index, _ = _random_chromland(True, 5, seed=11)
        setattr(index, table, getattr(index, table).astype(np.float64))
        with pytest.raises(TypeError, match="integer"):
            ChromLandExecutor(index)
