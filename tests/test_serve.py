"""Tests for the HTTP serving layer: endpoints, batching, wire identity.

The server under test runs in-process on a background thread bound to an
ephemeral port (``ServerThread``); clients are plain ``http.client``
connections, so the full codec — request parsing, routing, JSON bodies,
keep-alive — is exercised end to end.  The MicroBatcher tests drive an
engine whose batches complete only when the test says so, on an event
loop that fails the test if any timer is armed: under hypothesis, any
interleaving of arrivals and batch completions is explored, and no flush
may wait on a clock.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ChromLandIndex,
    ExactDijkstraOracle,
    NaivePowersetIndex,
    PowCovIndex,
)
from repro.engine import execute_batch
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labelsets import full_mask
from repro.obs.metrics import registry as metrics_registry
from repro.landmarks import select_landmarks
from repro.serve import (
    GraphRegistry,
    MicroBatcher,
    ServeApp,
    ServeConfig,
    ServerThread,
)
from repro.serve.app import from_wire_distance, wire_distance
from repro.serve.http import HttpError, HttpRequest
from repro.serve.loadgen import HttpClient, run_loadgen


# ----------------------------------------------------------------------
# Fixtures: one server over every oracle family
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return labeled_erdos_renyi(40, 150, num_labels=4, seed=11)


@pytest.fixture(scope="module")
def oracles(graph):
    landmarks = select_landmarks(graph, 8, strategy="degree", seed=0)
    colors = [i % graph.num_labels for i in range(len(landmarks))]
    return {
        "powcov": PowCovIndex(graph, landmarks).build(),
        "chromland": ChromLandIndex(graph, landmarks, colors).build(),
        "naive": NaivePowersetIndex(graph, landmarks).build(),
        "exact": ExactDijkstraOracle(graph),
    }


@pytest.fixture(scope="module")
def server(graph, oracles):
    registry = GraphRegistry()
    registry.register("g", graph, dict(oracles))
    app = ServeApp(
        registry=registry,
        config=ServeConfig(workers=2),
    )
    with ServerThread(app) as live:
        yield live


def request_json(server, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(
            method, path, body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_healthz(self, server):
        status, body = request_json(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["graphs"] == 1

    def test_graphs_listing(self, server, graph):
        status, body = request_json(server, "GET", "/graphs")
        assert status == 200
        (entry,) = body["graphs"]
        assert entry["name"] == "g"
        assert entry["num_vertices"] == graph.num_vertices
        assert entry["num_edges"] == graph.num_edges
        assert set(entry["oracles"]) == {
            "powcov", "chromland", "naive", "exact",
        }

    def test_metrics_prometheus_text(self, server):
        request_json(server, "GET", "/healthz")  # ensure some traffic
        status, text = request_json(server, "GET", "/metrics")
        assert status == 200
        assert isinstance(text, str)
        assert "# TYPE repro_serve_http_requests counter" in text
        assert "repro_serve_http_requests" in text

    def test_live_metrics_match_the_sessions(self, graph, oracles):
        """Engine counters reach ``GET /metrics`` as the sessions answer:
        with both sessions still live, the exposition equals the sums of
        their own counters."""
        registry = GraphRegistry()
        registry.register(
            "g", graph,
            {"powcov": oracles["powcov"], "chromland": oracles["chromland"]},
        )
        metrics_registry().reset(prefix="engine.")
        with ServerThread(ServeApp(registry=registry)) as live:
            for kind in ("powcov", "chromland"):
                for payload in (
                    {"queries": [[1, 7, 3], [2, 9, 5], [1, 7, 3]], "oracle": kind},
                    {"source": 1, "target": 7, "mask": 3, "oracle": kind},
                    {"source": 4, "target": 8, "mask": 6, "oracle": kind},
                ):
                    status, body = request_json(
                        live, "POST", "/graphs/g/query", payload
                    )
                    assert status == 200, body
            status, text = request_json(live, "GET", "/metrics")
            sessions = [registry.session("g", k) for k in ("powcov", "chromland")]
            assert registry.session_keys() == [("g", "powcov"), ("g", "chromland")]
        assert status == 200
        exposed = dict(
            line.split() for line in text.splitlines() if not line.startswith("#")
        )
        for name in ("queries", "cache_misses", "masks_planned"):
            want = sum(session.stats.counters[name] for session in sessions)
            assert want > 0, name
            assert float(exposed.get(f"repro_engine_{name}", "nan")) == want, name

    def test_single_query_each_family(self, server, oracles):
        mask = 0b11
        for kind, oracle in oracles.items():
            status, body = request_json(
                server, "POST", "/graphs/g/query",
                {"source": 1, "target": 7, "mask": mask, "oracle": kind},
            )
            assert status == 200, body
            want = oracle.query(1, 7, mask)
            assert from_wire_distance(body["distance"]) == want
            assert body["reachable"] == (not math.isinf(want))
            assert body["oracle"] == kind

    def test_labels_list_equivalent_to_mask(self, server):
        _, via_labels = request_json(
            server, "POST", "/graphs/g/query",
            {"source": 0, "target": 5, "labels": [0, 2]},
        )
        _, via_mask = request_json(
            server, "POST", "/graphs/g/query",
            {"source": 0, "target": 5, "mask": 0b101},
        )
        assert via_labels["distance"] == via_mask["distance"]

    def test_omitted_mask_is_unconstrained(self, server, graph, oracles):
        _, body = request_json(
            server, "POST", "/graphs/g/query", {"source": 2, "target": 9},
        )
        # The server reports which family answered the default-oracle
        # request; the answer must equal that oracle's unconstrained one.
        want = oracles[body["oracle"]].query(
            2, 9, full_mask(graph.num_labels)
        )
        assert from_wire_distance(body["distance"]) == want


class TestWireIdentity:
    def test_batch_bit_identical_to_execute_batch(
        self, server, graph, oracles
    ):
        """HTTP answers == direct ``execute_batch``, for every family."""
        import random

        rng = random.Random(5)
        top = full_mask(graph.num_labels)
        triples = [
            (
                rng.randrange(graph.num_vertices),
                rng.randrange(graph.num_vertices),
                rng.randrange(1, top + 1),
            )
            for _ in range(60)
        ]
        for kind, oracle in oracles.items():
            status, body = request_json(
                server, "POST", "/graphs/g/query",
                {"queries": [list(t) for t in triples], "oracle": kind},
            )
            assert status == 200, body
            want = execute_batch(oracle, triples)
            got = [from_wire_distance(d) for d in body["distances"]]
            assert got == want, f"{kind} diverged over the wire"

    def test_unreachable_is_null_on_the_wire(self, server):
        # A mask with no labels admits no edges: always unreachable
        # (distinct endpoints).
        status, body = request_json(
            server, "POST", "/graphs/g/query",
            {"source": 0, "target": 1, "mask": 0, "oracle": "exact"},
        )
        assert status == 200
        assert body["distance"] is None
        assert body["reachable"] is False

    def test_wire_distance_roundtrip(self):
        for value in (0.0, 1.5, 7.000000000000001, math.inf):
            assert from_wire_distance(wire_distance(value)) == value


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "method,path,payload,expected",
        [
            ("GET", "/nope", None, 404),
            ("POST", "/graphs/unknown/query", {"source": 0, "target": 1}, 404),
            ("POST", "/graphs/g/query",
             {"source": 0, "target": 1, "oracle": "not-a-family"}, 404),
            ("POST", "/graphs/g/query", {"source": 0}, 400),
            ("POST", "/graphs/g/query", {"source": 0, "target": 10**6}, 400),
            ("POST", "/graphs/g/query", {"source": -1, "target": 1}, 400),
            ("POST", "/graphs/g/query",
             {"source": 0, "target": 1, "mask": -5}, 400),
            ("POST", "/graphs/g/query",
             {"source": 0, "target": 1, "mask": 1, "labels": [0]}, 400),
            ("POST", "/graphs/g/query",
             {"source": 0.5, "target": 1}, 400),
            ("POST", "/graphs/g/query", {"queries": "nope"}, 400),
            ("POST", "/graphs/g/query", {"queries": [[1, 2]]}, 400),
            ("POST", "/graphs/g/query", [1, 2, 3], 400),
            ("DELETE", "/graphs/g/query", None, 405),
        ],
    )
    def test_4xx(self, server, method, path, payload, expected):
        status, body = request_json(server, method, path, payload)
        assert status == expected, body
        assert "error" in body

    @pytest.mark.parametrize("kind", ["powcov", "chromland", "naive", "exact"])
    @pytest.mark.parametrize(
        "query",
        [
            {"mask": 1 << 4},
            {"mask": 129},
            {"mask": 2**70},
            {"labels": [0, 4]},
            {"labels": [2**70]},
        ],
        ids=["mask-2^L", "mask-129", "mask-2^70", "label-L", "label-2^70"],
    )
    def test_out_of_domain_mask_is_400(self, server, graph, kind, query):
        assert graph.num_labels == 4
        status, body = request_json(
            server, "POST", "/graphs/g/query",
            {"source": 1, "target": 7, "oracle": kind, **query},
        )
        assert status == 400, body
        assert "label" in body["error"]
        triple = [1, 7, query["mask"]] if "mask" in query else None
        if triple is not None:
            status, body = request_json(
                server, "POST", "/graphs/g/query",
                {"queries": [[1, 7, 3], triple], "oracle": kind},
            )
            assert status == 400, body

    def test_invalid_json_body(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/graphs/g/query", b"{not json",
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert b"invalid JSON" in response.read()
        finally:
            conn.close()

    def test_missing_body(self, server):
        status, body = request_json(server, "POST", "/graphs/g/query")
        assert status == 400
        assert "JSON" in body["error"]


def request_raw(server, body: bytes):
    """POST ``body`` as is (for JSON a dict cannot spell, such as ``1e3``)."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request(
            "POST", "/graphs/g/query", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def parser_verdict(graph, items):
    """What the per-item parser alone says about a ``queries`` list."""
    app = ServeApp(registry=GraphRegistry())
    try:
        for item in items:
            app._parse_query_item(item, graph.num_vertices, graph.num_labels)
    except HttpError as exc:
        return exc.status, exc.message
    finally:
        app.close()
    return 200, None


class TestColumnarDecode:
    """A triple-form batch decodes to one array; any doubt falls back to
    the per-item parser, so a bad batch gets that parser's 400."""

    # On the 40-vertex, 4-label graph: n = 40 and 2**L = 16.
    BAD_BODIES = {
        "true-source": b'{"queries": [[1, 2, 3], [true, 1, 3]]}',
        "false-target": b'{"queries": [[1, 2, 3], [1, false, 3]]}',
        "float-source": b'{"queries": [[1, 2, 3], [1.0, 2, 3]]}',
        "exponent-mask": b'{"queries": [[1, 2, 3], [1, 2, 1e3]]}',
        "vertex-n": b'{"queries": [[1, 2, 3], [40, 2, 3]]}',
        "target-n": b'{"queries": [[1, 2, 3], [1, 40, 3]]}',
        "vertex-minus-1": b'{"queries": [[1, 2, 3], [-1, 2, 3]]}',
        "mask-2^L": b'{"queries": [[1, 2, 3], [1, 2, 16]]}',
        "mask-minus-1": b'{"queries": [[1, 2, 3], [1, 2, -1]]}',
        "source-2^70": b'{"queries": [[1, 2, 3], [1180591620717411303424, 2, 3]]}',
        "mask-2^70": b'{"queries": [[1, 2, 3], [1, 2, 1180591620717411303424]]}',
        "mask-2^63": b'{"queries": [[1, 2, 3], [1, 2, 9223372036854775808]]}',
        "ragged-short": b'{"queries": [[1, 2, 3], [1, 2]]}',
        "ragged-long": b'{"queries": [[1, 2, 3], [1, 2, 3, 4]]}',
        "mixed-bad-object": b'{"queries": [[1, 2, 3], {"source": 1, "target": 40}]}',
        "null-field": b'{"queries": [[1, 2, 3], [1, null, 3]]}',
        "string-field": b'{"queries": [[1, 2, 3], ["1", 2, 3]]}',
        "nested": b'{"queries": [[[1, 2, 3]]]}',
    }

    @pytest.mark.parametrize("case", sorted(BAD_BODIES))
    def test_bad_batch_gets_the_parsers_400(self, server, graph, case):
        body = self.BAD_BODIES[case]
        want_status, want_message = parser_verdict(
            graph, json.loads(body)["queries"]
        )
        assert want_status == 400
        status, reply = request_raw(server, body)
        assert (status, reply["error"]) == (want_status, want_message)

    def test_valid_bodies_with_doubt_answer_as_before(self, server, oracles):
        """A boolean elsewhere in the body, object items mixed with
        triples, and an empty list all take the per-item path and
        answer as they did."""
        want = execute_batch(oracles["powcov"], [(1, 2, 3), (4, 5, 6)])
        for body in (
            b'{"queries": [[1, 2, 3], {"source": 4, "target": 5, "mask": 6}],'
            b' "oracle": "powcov"}',
            b'{"queries": [[1, 2, 3], [4, 5, 6]], "oracle": "powcov",'
            b' "debug": true}',
        ):
            status, reply = request_raw(server, body)
            assert status == 200, reply
            assert [from_wire_distance(d) for d in reply["distances"]] == want
        status, reply = request_raw(server, b'{"queries": [], "oracle": "powcov"}')
        assert (status, reply["distances"]) == (200, [])

    def test_what_reaches_the_session(self, graph, oracles):
        """A triple batch reaches ``QuerySession.run`` as one int64
        ``(n, 3)`` array; a single-form request as a list."""
        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": oracles["powcov"]})
        session = registry.session("g", "powcov")
        seen = []
        run = session.run

        def spy(queries):
            seen.append(queries)
            return run(queries)

        session.run = spy
        with ServerThread(ServeApp(registry=registry)) as live:
            status, body = request_json(
                live, "POST", "/graphs/g/query",
                {"queries": [[1, 2, 3], [4, 5, 6], [1, 2, 3]]},
            )
            assert status == 200, body
            status, body = request_json(
                live, "POST", "/graphs/g/query",
                {"source": 7, "target": 8, "mask": 5},
            )
            assert status == 200, body
        batch, single = seen
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == np.int64 and batch.shape == (3, 3)
        assert batch.tolist() == [[1, 2, 3], [4, 5, 6], [1, 2, 3]]
        assert single == [(7, 8, 5)]


# ----------------------------------------------------------------------
# MicroBatcher semantics
# ----------------------------------------------------------------------
class _TimerLoggingLoop(asyncio.SelectorEventLoop):
    """An event loop that records every timer armed on it."""

    def __init__(self) -> None:
        super().__init__()
        self.timers: list = []

    def call_at(self, when, callback, *args, context=None):
        self.timers.append(callback)
        return super().call_at(when, callback, *args, context=context)


def run_async(coro):
    """Run ``coro`` one loop iteration at a time, never blocking.

    Fails if anything armed a timer, or if the loop runs out of steps
    with ``coro`` unfinished — a request stranded in the batcher fails
    the test instead of hanging it.
    """
    max_steps = 100_000
    loop = _TimerLoggingLoop()
    task = loop.create_task(coro)
    try:
        for _ in range(max_steps):
            if task.done():
                break
            loop.call_soon(loop.stop)
            loop.run_forever()
        else:
            task.cancel()
            loop.run_until_complete(asyncio.gather(task, return_exceptions=True))
            pytest.fail(f"stranded: unfinished after {max_steps} loop steps")
    finally:
        loop.close()
    assert loop.timers == [], f"timers armed: {loop.timers}"
    return task.result()


async def settle() -> None:
    """Let every ready task run until it blocks (no clock involved)."""
    for _ in range(8):
        await asyncio.sleep(0)


def answer(triple) -> float:
    """Injective in (s, t, m): equal answers ⇒ right queries, right order."""
    s, t, m = triple
    return float(s * 10000 + t * 100 + m)


class ControlledEngine:
    """An ``execute`` whose batches complete only when the test says so."""

    def __init__(self) -> None:
        self.calls: list[list[tuple[int, int, int]]] = []
        self.running: list[tuple[list, asyncio.Future]] = []

    def __call__(self, triples):
        future = asyncio.get_running_loop().create_future()
        self.calls.append(list(triples))
        self.running.append((list(triples), future))
        return future

    def complete(self, index: int = 0) -> None:
        triples, future = self.running.pop(index)
        future.set_result([answer(t) for t in triples])

    def fail(self, index: int = 0) -> None:
        _, future = self.running.pop(index)
        future.set_exception(ValueError("poison"))


class TestMicroBatcher:
    def test_arrivals_during_a_batch_coalesce(self):
        """Requests that arrive while a batch runs go out together, in one
        engine call, as soon as that batch completes."""
        engine = ControlledEngine()

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=100)
            first = asyncio.ensure_future(batcher.submit([(1, 1, 1)]))
            await settle()
            assert engine.calls == [[(1, 1, 1)]]  # idle: flushed at once
            rest = [
                asyncio.ensure_future(batcher.submit([(i, i, 1), (i, i, 2)]))
                for i in (2, 3, 4)
            ]
            await settle()
            assert len(engine.calls) == 1  # busy: the arrivals wait
            assert batcher.pending_queries == 6
            engine.complete()
            await settle()
            assert len(engine.calls) == 2
            assert engine.calls[1] == [
                (2, 2, 1), (2, 2, 2), (3, 3, 1), (3, 3, 2), (4, 4, 1), (4, 4, 2)
            ]
            engine.complete()
            return await asyncio.gather(first, *rest)

        first, *rest = run_async(scenario())
        assert first == [10101.0]
        assert rest == [
            [answer((i, i, 1)), answer((i, i, 2))] for i in (2, 3, 4)
        ]

    def test_size_trigger_coalesces(self):
        """``max_batch`` flushes the requests that arrived during a running
        batch as one engine call, without waiting for that batch."""
        engine = ControlledEngine()

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=3)
            futures = [asyncio.ensure_future(batcher.submit([(0, 0, 1)]))]
            await settle()
            futures.append(
                asyncio.ensure_future(batcher.submit([(0, 0, 2), (0, 0, 3)]))
            )
            await settle()
            assert len(engine.calls) == 1  # 2 pending < max_batch
            futures.append(asyncio.ensure_future(batcher.submit([(0, 0, 4)])))
            await settle()
            # The size limit flushes although the first batch still runs.
            assert engine.calls[1] == [(0, 0, 2), (0, 0, 3), (0, 0, 4)]
            assert batcher.pending_queries == 0
            engine.complete(1)
            engine.complete(0)
            return await asyncio.gather(*futures)

        assert run_async(scenario()) == [[1.0], [2.0, 3.0], [4.0]]

    def test_window_zero_flushes_immediately(self):
        """There is no coalescing window: an idle batcher calls ``execute``
        at once, and ``run_async`` fails the test if any timer is armed."""
        calls = []

        def execute(triples):
            calls.append(list(triples))
            return [0.0] * len(triples)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100)
            await batcher.submit([(0, 0, 1)])
            await batcher.submit([(0, 0, 2)])

        run_async(scenario())
        assert calls == [[(0, 0, 1)], [(0, 0, 2)]]  # one call per request

    def test_arrays_pass_through_and_concatenate(self):
        """A lone request's array reaches ``execute`` as the same object; a
        coalesced batch holding an array is one int64 array, rows in
        submission order."""
        engine = ControlledEngine()
        seen = []

        def execute(triples):
            seen.append(triples)
            return engine(triples)

        lone = np.array([[1, 1, 1], [2, 2, 1]], dtype=np.int64)
        later = np.array([[4, 4, 2]], dtype=np.int64)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100)
            futures = [asyncio.ensure_future(batcher.submit(lone))]
            await settle()
            assert seen[0] is lone
            futures.append(asyncio.ensure_future(batcher.submit([(3, 3, 1)])))
            futures.append(asyncio.ensure_future(batcher.submit(later)))
            await settle()
            engine.complete()
            await settle()
            engine.complete()
            return await asyncio.gather(*futures)

        results = run_async(scenario())
        coalesced = seen[1]
        assert isinstance(coalesced, np.ndarray) and coalesced.dtype == np.int64
        assert coalesced.tolist() == [[3, 3, 1], [4, 4, 2]]
        assert results == [
            [answer((1, 1, 1)), answer((2, 2, 1))],
            [answer((3, 3, 1))],
            [answer((4, 4, 2))],
        ]

    def test_error_isolation(self):
        """A poison query fails only the request that carried it."""

        def execute(triples):
            if any(m == 666 for _, _, m in triples):
                raise ValueError("poison")
            return [float(m) for _, _, m in triples]

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=3)
            healthy_a = asyncio.ensure_future(batcher.submit([(0, 0, 1)]))
            poisoned = asyncio.ensure_future(batcher.submit([(0, 0, 666)]))
            healthy_b = asyncio.ensure_future(batcher.submit([(0, 0, 2)]))
            done = await asyncio.gather(
                healthy_a, poisoned, healthy_b, return_exceptions=True
            )
            return done

        got_a, got_poison, got_b = run_async(scenario())
        assert got_a == [1.0]
        assert got_b == [2.0]
        assert isinstance(got_poison, ValueError)

    def test_pending_drained_after_a_failed_batch(self):
        """Requests that waited behind a failing batch still go out, once
        its error-isolation retries are done."""
        engine = ControlledEngine()

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=100)
            poisoned = asyncio.ensure_future(batcher.submit([(0, 0, 9)]))
            await settle()
            waiting = [
                asyncio.ensure_future(batcher.submit([(0, 0, m)]))
                for m in (1, 2)
            ]
            await settle()
            assert batcher.pending_queries == 2
            engine.fail()  # the batch fails: its request is retried alone
            await settle()
            assert engine.calls[-1] == [(0, 0, 9)]
            assert batcher.pending_queries == 2  # the retry is in flight
            engine.fail()
            await settle()
            assert batcher.pending_queries == 0
            assert engine.calls[-1] == [(0, 0, 1), (0, 0, 2)]
            engine.complete()
            with pytest.raises(ValueError, match="poison"):
                await poisoned
            return await asyncio.gather(*waiting)

        assert run_async(scenario()) == [[1.0], [2.0]]

    def test_pending_drained_after_a_cancelled_submitter(self):
        engine = ControlledEngine()

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=100)
            running = asyncio.ensure_future(batcher.submit([(1, 1, 1)]))
            await settle()
            dropped = asyncio.ensure_future(batcher.submit([(2, 2, 2)]))
            kept = asyncio.ensure_future(batcher.submit([(3, 3, 3)]))
            await settle()
            running.cancel()  # its batch is in flight
            dropped.cancel()  # its request is pending
            await settle()
            engine.complete()
            await settle()
            assert batcher.pending_queries == 0
            assert engine.calls[-1] == [(2, 2, 2), (3, 3, 3)]
            engine.complete()
            return running, dropped, await kept

        running, dropped, kept = run_async(scenario())
        assert running.cancelled() and dropped.cancelled()
        assert kept == [30303.0]

    def test_async_execute_fn(self):
        async def execute(triples):
            await asyncio.sleep(0)
            return [1.0] * len(triples)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=10)
            return await batcher.submit([(0, 0, 1), (1, 1, 1)])

        assert run_async(scenario()) == [1.0, 1.0]

    def test_answer_count_mismatch_is_an_error(self):
        async def scenario():
            batcher = MicroBatcher(lambda t: [0.0], max_batch=10)
            return await batcher.submit([(0, 0, 1), (1, 1, 1)])

        with pytest.raises(RuntimeError, match="answers"):
            run_async(scenario())

    def test_empty_submit(self):
        async def scenario():
            batcher = MicroBatcher(lambda t: [], max_batch=4)
            return await batcher.submit([])

        assert run_async(scenario()) == []


# Event plans: request arrivals interleaved with batch completions (the
# integer picks which running batch completes; a no-op when none runs).
_EVENTS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.lists(
                st.tuples(
                    st.integers(0, 9), st.integers(0, 9), st.integers(1, 7)
                ),
                min_size=0,
                max_size=4,
            ),
        ),
        st.tuples(st.just("complete"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=24,
)


class TestMicroBatcherProperty:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(events=_EVENTS, max_batch=st.integers(1, 8))
    def test_order_and_values_match_sequential(self, events, max_batch):
        """For ANY interleaving of arrivals and batch completions, every
        request gets exactly the answers a sequential ``execute_batch``
        would have produced, in its own order — and no flush waits on a
        timer (``run_async`` rejects any armed timer)."""
        engine = ControlledEngine()
        submitted = [list(arg) for kind, arg in events if kind == "submit"]

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=max_batch)
            futures = []
            for kind, arg in events:
                if kind == "submit":
                    futures.append(
                        asyncio.ensure_future(batcher.submit(list(arg)))
                    )
                elif engine.running:
                    engine.complete(arg % len(engine.running))
                await asyncio.sleep(0)
            # Drain: complete batches in flush order until all resolve.
            for _ in range(10_000):
                if all(future.done() for future in futures):
                    break
                if engine.running:
                    engine.complete()
                await asyncio.sleep(0)
            assert all(future.done() for future in futures), "stranded"
            assert batcher.pending_queries == 0
            return await asyncio.gather(*futures)

        results = run_async(scenario())

        for triples, got in zip(submitted, results):
            assert got == [answer(t) for t in triples]
        # Conservation: every query executed exactly once, in arrival order.
        flat_executed = [t for call in engine.calls for t in call]
        flat_submitted = [tuple(t) for triples in submitted for t in triples]
        assert flat_executed == flat_submitted


# ----------------------------------------------------------------------
# Loadgen + HttpClient against the live server
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_run_loadgen_round_trip(self, server):
        report = asyncio.run(run_loadgen(
            url=server.url,
            graph="g",
            oracle="powcov",
            clients=3,
            duration=0.5,
            batch_size=4,
            seed=1,
        ))
        assert report.errors == 0
        assert report.requests > 0
        assert report.queries == report.requests * 4
        assert report.p99_seconds >= report.p50_seconds >= 0.0
        payload = report.to_dict()
        assert payload["qps"] > 0
        assert json.dumps(payload)  # JSON-clean

    def test_http_client_maps_errors(self, server):
        async def scenario():
            client = HttpClient.from_url(server.url)
            await client.connect()
            try:
                return await client.request(
                    "POST", "/graphs/missing/query",
                    {"source": 0, "target": 1},
                )
            finally:
                await client.close()

        status, body = asyncio.run(scenario())
        assert status == 404
        assert "error" in body


# ----------------------------------------------------------------------
# Codec units (no socket)
# ----------------------------------------------------------------------
class TestHttpCodec:
    def test_segments_decode(self):
        request = HttpRequest(method="POST", path="/graphs/my%20graph/query")
        assert request.segments == ["graphs", "my graph", "query"]

    def test_json_rejects_empty(self):
        with pytest.raises(HttpError) as excinfo:
            HttpRequest(method="POST", path="/x").json()
        assert excinfo.value.status == 400
