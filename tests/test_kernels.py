"""Property tests for :mod:`repro.kernels`: bit-identity and the registry.

The compiled backend (the on-demand C extension, when a C compiler is on
``PATH``) is tested *in isolation* against the numpy reference for all four protocol methods — directed and undirected
graphs, weighted auxiliary graphs, and the PR-4 edge cases (empty graphs,
a trailing vertex with no in-arcs, whose reversed-CSR segment is empty).
Every comparison is exact ``==``: the kernels contract is bit-identity,
not tolerance.

The registry tests pin the selection semantics: probe results are
memoized (one import attempt per backend per process), an explicit
request for an unavailable backend emits exactly one structured
:class:`KernelFallbackWarning`, and a call without ``kernel=`` runs on
``"auto"`` (cext when it compiles, numpy otherwise).
"""

from __future__ import annotations

import builtins
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import force_numpy_kernel
from repro import kernels
from repro.core.chromland.query import (
    AuxiliaryPlan,
    auxiliary_distance_from_plan,
)
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.kernels import (
    KERNEL_CHOICES,
    KernelFallbackWarning,
    available_kernels,
    kernel_name,
    resolve_kernel,
)
from repro.perf.batched import batched_constrained_bfs

NUMPY = resolve_kernel("numpy")

KERNEL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        # ``compiled`` only resolves a memoized backend instance; sharing
        # it across hypothesis examples is intentional.
        HealthCheck.function_scoped_fixture,
    ],
)


@pytest.fixture(params=["cext"])
def compiled(request):
    """One compiled backend, skipping when its toolchain is absent."""
    name = request.param
    if name not in available_kernels():
        pytest.skip(f"{name} kernel backend unavailable in this environment")
    return resolve_kernel(name)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Leave the kernel registry's warning state as found."""
    yield
    kernels._reset_for_tests()


# ----------------------------------------------------------------------
# Graph strategies
# ----------------------------------------------------------------------
@st.composite
def labeled_graphs(draw) -> EdgeLabeledGraph:
    """Small directed/undirected labeled multigraph-free graphs."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=10))
    num_labels = draw(st.integers(min_value=1, max_value=4))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not directed:
        pairs = [(u, v) for u, v in pairs if u < v]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            min_size=0,
            max_size=min(3 * n, len(pairs)),
            unique=True,
        )
    )
    labels = draw(
        st.lists(
            st.integers(0, num_labels - 1),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    edges = [(u, v, lab) for (u, v), lab in zip(chosen, labels)]
    return EdgeLabeledGraph.from_edges(
        n, edges, num_labels=num_labels, directed=directed
    )


def random_batch(data, graph: EdgeLabeledGraph, min_rows: int):
    """Sources + per-row label masks for a ``batched_constrained_bfs``."""
    n = graph.num_vertices
    rows = data.draw(st.integers(min_value=min_rows, max_value=min_rows + 6))
    sources = data.draw(
        st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)
    )
    full = (1 << graph.num_labels) - 1
    masks = data.draw(
        st.lists(st.integers(0, full), min_size=rows, max_size=rows)
    )
    return sources, masks


# ----------------------------------------------------------------------
# Bit-identity: MS-BFS (bitset + sparse paths)
# ----------------------------------------------------------------------
class TestMsBfsIdentity:
    @KERNEL_SETTINGS
    @given(st.data())
    def test_bitset_path_matches_numpy(self, compiled, data):
        """≥4 per-source-mask rows route to ``msbfs_bitset``; the compiled
        sweep must reproduce the numpy lanes bit-for-bit."""
        graph = data.draw(labeled_graphs())
        sources, masks = random_batch(data, graph, min_rows=4)
        for max_level in (None, 0, 2):
            want = batched_constrained_bfs(
                graph, sources, masks=masks, max_level=max_level, kernel=NUMPY
            )
            got = batched_constrained_bfs(
                graph, sources, masks=masks, max_level=max_level,
                kernel=compiled,
            )
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @KERNEL_SETTINGS
    @given(st.data())
    def test_sparse_path_matches_numpy(self, compiled, data):
        """Shared-mask / few-row batches route to ``msbfs_sparse``; the
        compiled queue BFS must match numpy's frontier expansion."""
        graph = data.draw(labeled_graphs())
        n = graph.num_vertices
        rows = data.draw(st.integers(min_value=1, max_value=3))
        sources = data.draw(
            st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)
        )
        mask = data.draw(st.integers(0, (1 << graph.num_labels) - 1))
        for max_level in (None, 1):
            want = batched_constrained_bfs(
                graph, sources, mask=mask, max_level=max_level, kernel=NUMPY
            )
            got = batched_constrained_bfs(
                graph, sources, mask=mask, max_level=max_level, kernel=compiled
            )
            assert np.array_equal(got, want)

    def test_empty_graph(self, compiled):
        """No edges at all: every row is its seed and nothing else."""
        graph = EdgeLabeledGraph.from_edges(5, [], num_labels=2)
        sources = [0, 1, 2, 3, 4]
        masks = [3, 3, 1, 2, 0]
        want = batched_constrained_bfs(graph, sources, masks=masks, kernel=NUMPY)
        got = batched_constrained_bfs(graph, sources, masks=masks, kernel=compiled)
        assert np.array_equal(got, want)

    def test_trailing_in_arc_free_vertex(self, compiled):
        """PR-4 edge case: the last vertex has out-arcs but *no* in-arcs,
        so the reversed CSR ends with an empty segment — the compiled
        in-arc sweep must not read past it."""
        edges = [(4, 0, 0), (4, 1, 1), (0, 1, 0), (1, 2, 1), (2, 3, 0)]
        graph = EdgeLabeledGraph.from_edges(5, edges, num_labels=2, directed=True)
        sources = [4, 4, 0, 1, 3]
        masks = [3, 1, 3, 2, 3]
        want = batched_constrained_bfs(graph, sources, masks=masks, kernel=NUMPY)
        got = batched_constrained_bfs(graph, sources, masks=masks, kernel=compiled)
        assert np.array_equal(got, want)
        # Same topology through the sparse (shared-mask) path.
        want = batched_constrained_bfs(graph, [4, 3], mask=3, kernel=NUMPY)
        got = batched_constrained_bfs(graph, [4, 3], mask=3, kernel=compiled)
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Bit-identity: Theorem 2 one-removed pass
# ----------------------------------------------------------------------
class TestOneRemovedIdentity:
    @KERNEL_SETTINGS
    @given(st.data())
    def test_matches_numpy(self, compiled, data):
        rows = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 12))
        prev = data.draw(st.integers(1, 5))
        subset = data.draw(st.integers(1, min(3, prev)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        big = np.int32(2**30)
        dist = rng.integers(0, 20, size=(rows, n)).astype(np.int32)
        prev_rows = rng.integers(0, 20, size=(prev + 1, n)).astype(np.int32)
        prev_rows[-1] = big  # the all-BIG pad row
        sub_rows = rng.integers(0, prev + 1, size=(rows, subset)).astype(
            np.int64
        )
        want = NUMPY.one_removed_pass(dist, prev_rows, sub_rows)
        got = compiled.one_removed_pass(dist, prev_rows, sub_rows)
        assert got.dtype == np.bool_
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Bit-identity: auxiliary-graph Dijkstra (weighted)
# ----------------------------------------------------------------------
def _random_aux(data):
    """A masked auxiliary adjacency + endpoint legs, with infs sprinkled."""
    k = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    weights = rng.uniform(0.5, 10.0, size=(k, k))
    weights[rng.random((k, k)) < 0.4] = np.inf
    np.fill_diagonal(weights, np.inf)
    ds = rng.uniform(0.0, 10.0, size=k)
    dt = rng.uniform(0.0, 10.0, size=k)
    ds[rng.random(k) < 0.3] = np.inf
    dt[rng.random(k) < 0.3] = np.inf
    return weights, ds, dt


class TestAuxDijkstraIdentity:
    @KERNEL_SETTINGS
    @given(st.data())
    def test_matches_numpy(self, compiled, data):
        weights, ds, dt = _random_aux(data)
        best = float((ds + dt).min())
        want = NUMPY.aux_dijkstra(weights, ds.copy(), dt, best)
        got = compiled.aux_dijkstra(weights, ds.copy(), dt, best)
        assert got == want or (np.isinf(got) and np.isinf(want))
        # Bit-identity, not closeness: identical IEEE operation order.
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @KERNEL_SETTINGS
    @given(st.data())
    def test_noncontiguous_legs(self, compiled, data):
        """ChromLand hands column slices of ``(k, batch)`` leg matrices —
        compiled wrappers must coerce non-contiguous input correctly."""
        weights, ds, dt = _random_aux(data)
        k = len(ds)
        ds2 = np.empty((k, 3))
        dt2 = np.empty((k, 3))
        ds2[:, 1] = ds
        dt2[:, 1] = dt
        usable = np.arange(k, dtype=np.int64)
        plan = AuxiliaryPlan(usable=usable, weights=weights)
        want = auxiliary_distance_from_plan(
            plan, ds2[:, 1], dt2[:, 1], kernel=NUMPY
        )
        got = auxiliary_distance_from_plan(
            plan, ds2[:, 1], dt2[:, 1], kernel=compiled
        )
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_all_unreachable(self, compiled):
        k = 4
        weights = np.full((k, k), np.inf)
        legs = np.full(k, np.inf)
        want = NUMPY.aux_dijkstra(weights, legs.copy(), legs, float("inf"))
        got = compiled.aux_dijkstra(weights, legs.copy(), legs, float("inf"))
        assert np.isinf(want) and np.isinf(got)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_kernels()
        assert resolve_kernel("numpy").name == "numpy"

    def test_instance_passthrough(self):
        assert resolve_kernel(NUMPY) is NUMPY

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel("fortran")
        with pytest.raises(ValueError, match="kernel must be one of"):
            kernel_name("fortran")

    def test_auto_resolves_to_some_backend(self):
        assert resolve_kernel("auto").name in KERNEL_CHOICES

    def test_probe_failure_is_memoized(self, monkeypatch):
        """Exactly one import attempt per backend per process."""
        kernels._reset_for_tests(clear_probes=True)
        attempts = []
        real_import = builtins.__import__

        def counting_import(name, *args, **kwargs):
            if "_cext" in name:
                attempts.append(name)
                raise ImportError("forced by test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting_import)
        try:
            assert kernels._load("cext") is None
            assert kernels._load("cext") is None
            assert "cext" not in available_kernels()
        finally:
            kernels._reset_for_tests(clear_probes=True)
        assert len(attempts) == 1

    def test_fallback_warns_exactly_once(self, monkeypatch):
        """An explicit request for a dead backend degrades to numpy with
        one structured warning — not one per build."""
        kernels._reset_for_tests()
        monkeypatch.setitem(
            kernels._probe_failures, "cext", "ImportError: forced by test"
        )
        monkeypatch.delitem(kernels._backends, "cext", raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = resolve_kernel("cext")
            second = resolve_kernel("cext")
        assert first.name == "numpy" and second.name == "numpy"
        fallbacks = [
            w for w in caught if issubclass(w.category, KernelFallbackWarning)
        ]
        assert len(fallbacks) == 1
        message = fallbacks[0].message
        assert message.requested == "cext"
        assert message.fallback == "numpy"
        assert "forced by test" in message.reason
        assert "falling back to 'numpy'" in str(message)

    def test_default_kernel_flows_into_builds(self, monkeypatch):
        """With no ``kernel=``, a sweep runs on ``"auto"``: cext when it
        compiles, numpy once cext's probe has failed — same levels."""
        graph = EdgeLabeledGraph.from_edges(
            4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)], num_labels=2
        )
        want = batched_constrained_bfs(graph, [0, 1, 2, 3], masks=[3] * 4,
                                       kernel=NUMPY)
        auto = "cext" if "cext" in available_kernels() else "numpy"
        assert kernel_name() == auto
        got = batched_constrained_bfs(graph, [0, 1, 2, 3], masks=[3] * 4)
        assert np.array_equal(got, want)
        force_numpy_kernel(monkeypatch)
        assert resolve_kernel(None) is NUMPY
        got = batched_constrained_bfs(graph, [0, 1, 2, 3], masks=[3] * 4)
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Observability: spans attribute the kernel
# ----------------------------------------------------------------------
class TestSpanAttribution:
    def test_wave_span_tags_kernel(self):
        from repro.core.powcov import PowCovIndex
        from repro.obs.trace import get_trace, reset_trace, set_tracing

        graph = EdgeLabeledGraph.from_edges(
            5,
            [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 4, 1), (0, 4, 0)],
            num_labels=2,
        )
        set_tracing(True)
        reset_trace()
        try:
            PowCovIndex(graph, [0, 2, 4], builder="wave").build()
            spans = get_trace()
        finally:
            set_tracing(False)
            reset_trace()

        def collect(all_spans, name):
            found = []
            for s in all_spans:
                if s.name == name:
                    found.append(s)
                found.extend(collect(s.children, name))
            return found

        waves = collect(spans, "powcov.wave")
        assert waves, "wave builder emitted no powcov.wave spans"
        for s in waves:
            assert str(s.tags.get("kernel")) in ("numpy", "cext")
        builds = collect(spans, "powcov.build")
        assert builds and all(
            str(s.tags.get("kernel")) in ("numpy", "cext")
            for s in builds
        )
