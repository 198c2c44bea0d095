"""Differential test harness: every oracle × build backend × executor path.

Hypothesis generates small labeled graphs and the harness runs the full
cross-product

    {PowCov scalar builder, PowCov wave builder, ChromLand, naive baseline}
  × {serial build, thread-pool build}
  × {scalar ``oracle.query`` loop, vectorized ``execute_batch``,
     cached ``QuerySession`` on triples and on an ``(n, 3)`` int array,
     the ``repro.serve`` HTTP wire}

asserting that

* every *exact* configuration (PowCov with a vertex-cover landmark set —
  Theorem 1 — and the naive powerset index) returns the ground-truth
  constrained distance bit-for-bit, on every executor path;
* every ChromLand configuration respects the Theorem 5 upper bound
  (estimate ≥ exact, with ``inf`` agreement), and all ChromLand
  configurations report the *identical* set of bound-violating
  (approximate) queries — build backend and executor path must never
  change which queries are approximated, nor by how much;
* a mask outside the graph's label domain is rejected on every engine
  path and on the wire, for every oracle family.

``test_harness_detects_executor_divergence`` proves the harness has teeth:
a deliberately corrupted executor must trip the consistency assertions.

The hypothesis budget is environment-tunable so the nightly CI job can run
a much deeper search than the tier-1 gate:

    REPRO_HYPOTHESIS_EXAMPLES=200 pytest tests/test_differential.py
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import all_pairs_all_masks, force_numpy_kernel
from repro.core import ChromLandIndex, NaivePowersetIndex, PowCovIndex
from repro.engine import QuerySession, execute_batch
from repro.engine.executors import PowCovExecutor
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.kernels import available_kernels, kernel_name
#: Build axis: ``parallel=`` values (serial, and two worker threads).
BACKENDS = {"serial": None, "thread": 2}
POWCOV_BUILDERS = ("traverse", "wave")
#: Kernel axis: every backend importable here (numpy always; the
#: on-demand C extension when a C compiler is present).
AVAILABLE_KERNELS = available_kernels()

DIFFERENTIAL = settings(
    max_examples=int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "10")),
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        # The ``kernel`` fixture only marks a kernel probe as failed, so
        # sharing it across hypothesis examples is intentional.
        HealthCheck.function_scoped_fixture,
    ],
)


@pytest.fixture(params=AVAILABLE_KERNELS)
def kernel(request, monkeypatch):
    """Run the decorated test once per available kernel backend, by making
    ``"auto"`` resolve to it (numpy: cext's probe marked as failed)."""
    if request.param == "numpy":
        force_numpy_kernel(monkeypatch)
    return request.param


# ----------------------------------------------------------------------
# Graph generation
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw) -> EdgeLabeledGraph:
    """Connected-ish undirected labeled graphs, small enough for the naive
    powerset index and all-pairs ground truth."""
    n = draw(st.integers(min_value=4, max_value=9))
    num_labels = draw(st.integers(min_value=1, max_value=3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            min_size=n - 1,
            max_size=min(2 * n, len(pairs)),
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
    return EdgeLabeledGraph.from_edges(n, edges, num_labels=num_labels)


# ----------------------------------------------------------------------
# Harness core
# ----------------------------------------------------------------------
_HTTP = {"server": None, "registry": None}


def _http_server():
    """One lazily-booted in-process server shared by every http-path call.

    Each call re-registers the oracle under the same name, so the wire
    axis costs one registry swap + one POST per oracle instead of a
    server boot per hypothesis example.
    """
    if _HTTP["server"] is None:
        from repro.serve import (
            GraphRegistry,
            ServeApp,
            ServeConfig,
            ServerThread,
        )

        registry = GraphRegistry()
        app = ServeApp(
            registry=registry,
            config=ServeConfig(workers=1),
        )
        _HTTP["registry"] = registry
        _HTTP["server"] = ServerThread(app).start()
    return _HTTP["server"], _HTTP["registry"]


@pytest.fixture(scope="module", autouse=True)
def _http_server_teardown():
    yield
    if _HTTP["server"] is not None:
        _HTTP["server"].stop()
        _HTTP["server"] = _HTTP["registry"] = None


def _post_via_http(oracle, queries) -> tuple[int, dict]:
    import http.client
    import json

    server, registry = _http_server()
    registry.register("diff", oracle.graph, {"oracle-under-test": oracle})
    body = json.dumps({
        "queries": [list(query) for query in queries],
        "oracle": "oracle-under-test",
    }, default=int)
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        conn.request(
            "POST", "/graphs/diff/query", body,
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _answers_via_http(oracle, queries) -> list[float]:
    status, payload = _post_via_http(oracle, queries)
    assert status == 200, payload
    return [math.inf if d is None else d for d in payload["distances"]]


def answers_via(oracle, queries, path: str) -> list[float]:
    """Answer ``queries`` through one of the executor paths."""
    if path == "scalar":
        return [oracle.query(s, t, m) for s, t, m in queries]
    if path == "batch":
        return execute_batch(oracle, queries)
    if path == "session":
        return QuerySession(oracle).run(queries)
    if path == "session-array":
        # An (n, 3) int array through the cached path: all misses, then
        # the same array again from the answer cache.
        session = QuerySession(oracle)
        arr = np.array(queries, dtype=np.int64).reshape(-1, 3)
        answers = session.run(arr)
        assert session.run(arr) == answers
        return answers
    if path == "http":
        return _answers_via_http(oracle, queries)
    raise ValueError(path)


EXECUTOR_PATHS = ("scalar", "batch", "session", "session-array", "http")


def assert_paths_agree(oracle, queries, reference: list[float], label: str):
    """Every executor path over ``oracle`` must reproduce ``reference``."""
    for path in EXECUTOR_PATHS:
        got = answers_via(oracle, queries, path)
        for i, (want, have) in enumerate(zip(reference, got)):
            assert math.isinf(want) == math.isinf(have) and (
                math.isinf(want) or want == have
            ), (
                f"{label}/{path} diverged on query {queries[i]}: "
                f"expected {want}, got {have}"
            )


def violation_profile(estimates: list[float], exact: list[float]):
    """The (query index → estimate) map where an oracle is not exact."""
    profile = {}
    for i, (est, ref) in enumerate(zip(estimates, exact)):
        assert est >= ref or math.isinf(ref), (
            f"Theorem 5 violated at query {i}: estimate {est} < exact {ref}"
        )
        if est != ref and not (math.isinf(est) and math.isinf(ref)):
            profile[i] = est
    return profile


# ----------------------------------------------------------------------
# The cross-product
# ----------------------------------------------------------------------
class TestDifferential:
    @DIFFERENTIAL
    @given(small_graphs())
    def test_exact_oracles_match_ground_truth(self, kernel, graph):
        """PowCov (both builders, both backends) and the naive index are
        exact, on every executor path and kernel — Theorem 1 with a
        vertex cover."""
        truth = list(all_pairs_all_masks(graph))
        queries = [(s, t, m) for s, t, m, _ in truth]
        exact = [d for _, _, _, d in truth]

        cover = list(range(graph.num_vertices))  # trivially a vertex cover
        for builder in POWCOV_BUILDERS:
            for backend_name, backend in BACKENDS.items():
                oracle = PowCovIndex(graph, cover, builder=builder).build(
                    parallel=backend
                )
                assert_paths_agree(
                    oracle,
                    queries,
                    exact,
                    f"powcov[{builder}/{backend_name}/{kernel}]",
                )

        naive = NaivePowersetIndex(graph, cover).build()
        assert_paths_agree(naive, queries, exact, f"naive[{kernel}]")

    @DIFFERENTIAL
    @given(small_graphs())
    def test_kernels_agree_bit_for_bit(self, graph):
        """Every available kernel backend reproduces the numpy answers
        exactly — including ChromLand's *approximate* ones, where the
        compiled Dijkstra must replay numpy's IEEE operation order."""
        truth = list(all_pairs_all_masks(graph))
        queries = [(s, t, m) for s, t, m, _ in truth]

        k = min(4, graph.num_vertices)
        landmarks = list(range(k))
        colors = [i % graph.num_labels for i in range(k)]

        answers = {}
        for name in AVAILABLE_KERNELS:
            with pytest.MonkeyPatch.context() as patch:
                if name == "numpy":
                    force_numpy_kernel(patch)
                assert kernel_name() == name
                powcov = PowCovIndex(
                    graph, range(min(3, graph.num_vertices)), builder="wave"
                ).build()
                chrom = ChromLandIndex(graph, landmarks, colors).build()
                answers[name] = (
                    answers_via(powcov, queries, "batch"),
                    answers_via(chrom, queries, "session"),
                )

        reference = answers["numpy"]
        for name, got in answers.items():
            assert got == reference, (
                f"kernel {name!r} diverged from the numpy reference"
            )

    @DIFFERENTIAL
    @given(small_graphs())
    def test_chromland_bound_and_backend_consistency(self, kernel, graph):
        """ChromLand respects the Theorem 5 upper bound and its
        approximation profile is identical across build backends and
        executor paths (under every kernel)."""
        truth = list(all_pairs_all_masks(graph))
        queries = [(s, t, m) for s, t, m, _ in truth]
        exact = [d for _, _, _, d in truth]

        k = min(4, graph.num_vertices)
        landmarks = list(range(k))
        colors = [i % graph.num_labels for i in range(k)]

        profiles = {}
        for backend_name, backend in BACKENDS.items():
            oracle = ChromLandIndex(graph, landmarks, colors).build(
                parallel=backend
            )
            reference = answers_via(oracle, queries, "scalar")
            # All executor paths agree with the scalar reference.
            assert_paths_agree(
                oracle, queries, reference, f"chromland[{backend_name}/{kernel}]"
            )
            # Upper bound holds; record which queries are approximate.
            profiles[backend_name] = violation_profile(reference, exact)

        assert profiles["serial"] == profiles["thread"], (
            "build backend changed ChromLand's approximation profile"
        )

    @DIFFERENTIAL
    @given(small_graphs())
    def test_powcov_builders_agree_bit_for_bit(self, graph):
        """Scalar and wave builders produce interchangeable indexes even
        with a non-covering landmark set (where answers may be inexact)."""
        landmarks = list(range(min(3, graph.num_vertices)))
        reference = None
        for builder in POWCOV_BUILDERS:
            for backend in BACKENDS.values():
                oracle = PowCovIndex(graph, landmarks, builder=builder).build(
                    parallel=backend
                )
                truth = list(all_pairs_all_masks(graph))
                queries = [(s, t, m) for s, t, m, _ in truth]
                got = answers_via(oracle, queries, "batch")
                if reference is None:
                    reference = got
                    assert_paths_agree(oracle, queries, reference, builder)
                else:
                    assert got == reference, (
                        f"{builder} builder diverged from {POWCOV_BUILDERS[0]}"
                    )


    @DIFFERENTIAL
    @given(small_graphs())
    def test_out_of_domain_masks_rejected_on_every_path(self, graph):
        """Out-of-domain axis: a mask outside ``[0, 2**num_labels)``, a
        vertex outside ``[0, num_vertices)`` or a float field (never
        truncated to an integer) never reaches an oracle — the
        scalar ``query`` and the engine paths raise ``ValueError`` and the
        wire answers 400, for every oracle family and every bad query,
        even when a caching session holds the answer of its int twin."""
        top = 1 << graph.num_labels
        n = graph.num_vertices
        bad_queries = {
            "2^L": (0, 1, top),
            "2^L+1": (0, 1, top + 1),
            "2^70": (0, 1, 2**70),
            "vertex n": (n, 1, top - 1),
            "vertex -1": (0, -1, top - 1),
            "vertex 1.5": (1.5, 1, top - 1),
            "mask 3.5": (0, 1, 3.5),
        }
        k = min(4, graph.num_vertices)
        oracles = {
            "powcov": PowCovIndex(graph, range(graph.num_vertices)).build(),
            "chromland": ChromLandIndex(
                graph, range(k), [i % graph.num_labels for i in range(k)]
            ).build(),
            "naive": NaivePowersetIndex(graph, range(k)).build(),
        }
        for which, bad in bad_queries.items():
            queries = [(0, 1, top - 1), bad]
            for name, oracle in oracles.items():
                for path in ("scalar", "batch", "session"):
                    with pytest.raises(ValueError, match="domain|int64|vertex"):
                        answers_via(oracle, queries, path)
                status, payload = _post_via_http(oracle, queries)
                assert status == 400, (which, name, payload)
        for name, oracle in oracles.items():
            # A cached answer is no way round the check: the float twin of
            # a query the session has answered still raises.
            session = QuerySession(oracle)
            session.run([(0, 1, top - 1)])
            for twin in (
                [(0.0, 1, top - 1)],
                [(0, 1, float(top - 1))],
                np.array([[0, 1, top - 1]], dtype=np.float64),
            ):
                with pytest.raises(ValueError, match="domain"):
                    session.run(twin)


# ----------------------------------------------------------------------
# The harness must fail when an executor diverges
# ----------------------------------------------------------------------
class TestHarnessSensitivity:
    def test_harness_detects_executor_divergence(self, monkeypatch):
        """A corrupted vectorized executor trips the consistency check."""
        graph = labeled_erdos_renyi(20, 45, num_labels=3, seed=5)
        oracle = PowCovIndex(
            graph, range(graph.num_vertices), builder="traverse"
        ).build()
        truth = list(all_pairs_all_masks(graph))
        queries = [(s, t, m) for s, t, m, _ in truth][:200]
        exact = [d for _, _, _, d in truth][:200]

        # Sanity: the untampered executor passes.
        assert_paths_agree(oracle, queries, exact, "powcov")

        real = PowCovExecutor.execute_group

        def corrupted(self, mask_plan, group):
            out = np.asarray(real(self, mask_plan, group), dtype=np.float64)
            out = out.copy()
            out[np.isfinite(out)] += 1.0
            return out

        monkeypatch.setattr(PowCovExecutor, "execute_group", corrupted)
        with pytest.raises(AssertionError, match="diverged"):
            assert_paths_agree(oracle, queries, exact, "powcov-mutated")

    def test_bound_checker_detects_underestimates(self):
        """``violation_profile`` rejects estimates below the exact value."""
        with pytest.raises(AssertionError, match="Theorem 5"):
            violation_profile([1.0], [2.0])
        # ...but accepts genuine upper bounds and records them.
        assert violation_profile([3.0, 2.0, math.inf], [2.0, 2.0, math.inf]) == {
            0: 3.0
        }
