"""``features``: link-prediction features over a store-backed server.

Many random vertex pairs, each asked under the same four label contexts
(drawn once as the paper's workload draws them, one per context size),
sent as 256-query batch requests that alternate between the PowCov and
ChromLand oracles, over two keep-alive connections in a closed loop.  The
index files are prepared once per checkout by the serve CLI's own
``--prepare-only`` recipe, outside every measurement; the batcher window is
bypassed (a request fills ``batch_max``) and the answer cache misses (the
request pool holds four times the cache's capacity per oracle).  The
index update measured here is the index files coming into service in
the server: its CPU from listening to the first answer of both oracles,
the registry's first touch (open, new session, first run).
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness
from harness import Connection, Result, Server, encode_post, wire

DATASET = "biogrid-sim"
SCALE = 1.0
GRAPH_SEED = 7
ORACLES = ("powcov", "chromland")
#: The four fixed label contexts every pair is asked under follow the
#: paper's workload as ``generate_workload`` samples it: one
#: ``random_label_set`` per context size, the sizes four evenly spaced points
#: of its 1..|L| sweep (1, 3, 5 and 7 labels on biogrid-sim), the labels
#: drawn with this seed.
CONTEXT_SEED = 0
CONTEXTS = 4
PAIRS_PER_REQUEST = 64
REQUESTS_PER_ORACLE = 64
CONNECTIONS = 2
#: Server boots timed before the window and after it: set-up and first-touch
#: CPU vary by about 20% from one boot to the next, and the host's speed
#: changes in phases of 25-35 s, so the boots are many and split across the
#: run (perfbench/NOTES.md, "Noise sources").
SETUPS_BEFORE = 6
SETUPS_AFTER = 6
#: The (wall, CPU) cost metrics the tracing overhead is read from.
OVERHEAD_BASIS = ("p50_ms", "cpu_us_per_query")
WARMUP_REQUESTS = 8
#: Server CPU per query is read per slice of the window; the metric is the
#: upper quartile over the slices (see harness.upper_quartile).
SLICE_S = 1.0


def serve_args(index_dir: Path, scale: float) -> list[str]:
    args = ["--dataset", DATASET, "--scale", str(scale), "--seed", str(GRAPH_SEED)]
    for oracle in ORACLES:
        args += ["--oracle", oracle]
    return [*args, "--index", str(index_dir)]


def _masks(graph) -> list[int]:
    import numpy as np

    from repro.workloads.queries import random_label_set

    rng = np.random.default_rng(CONTEXT_SEED)
    sizes = np.linspace(1, graph.num_labels, CONTEXTS).round().astype(int)
    return [random_label_set(rng, graph.num_labels, int(size)) for size in sizes]


def make_pool(graph, seed: int) -> list[tuple[str, list[tuple[int, int, int]]]]:
    """The request pool: (oracle, triples), oracles alternating."""
    import numpy as np

    rng = np.random.default_rng(seed)
    masks = _masks(graph)
    pool = []
    for i in range(2 * REQUESTS_PER_ORACLE):
        pairs = rng.integers(graph.num_vertices, size=(PAIRS_PER_REQUEST, 2))
        triples = [(int(s), int(t), m) for s, t in pairs for m in masks]
        pool.append((ORACLES[i % 2], triples))
    return pool


def prepare_indexes(index_dir: Path, scale: float) -> None:
    """Build and save both indexes once per checkout, with the serve CLI.

    ``--build-if-missing`` makes this a quick check when the files exist;
    a first build goes to a side directory that is renamed into place
    only when complete.
    """
    target = index_dir if index_dir.is_dir() else index_dir.with_suffix(".partial")
    args = [*serve_args(target, scale), "--build-if-missing", "--prepare-only"]
    done = subprocess.run([sys.executable, "-m", "repro.serve", *args],
                          cwd=harness.ROOT, env=harness.program_env(),
                          capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise harness.BenchError(f"index preparation failed:\n{done.stdout}{done.stderr}")
    if target != index_dir:
        target.rename(index_dir)


def run(seed: int, seconds: float, scale: float | None, trace_out: Path | None) -> Result:
    from repro.engine import execute_batch
    from repro.graph.datasets import load_dataset
    from repro.store.cache import IndexStore

    scale = SCALE if scale is None else scale
    result = Result()
    index_dir = harness.WORK / f"features-index-{scale}"
    prepare_indexes(index_dir, scale)
    index_mb = sum(p.stat().st_size for p in index_dir.glob("*")) / 2**20

    # Reference answers: in-process execute_batch on the same index files.
    graph, _spec = load_dataset(DATASET, scale=scale, seed=GRAPH_SEED)
    store = IndexStore(index_dir)
    references = {kind: store.load(kind, graph) for kind in ORACLES}
    pool = make_pool(graph, seed)
    expected = [
        [wire(d) for d in execute_batch(references[kind], triples)]
        for kind, triples in pool
    ]
    wire_pool = [
        encode_post(f"/graphs/{DATASET}/query",
                    {"oracle": kind, "queries": [list(t) for t in triples]})
        for kind, triples in pool
    ]
    probe = pool[0][1][0]
    probes = {
        kind: (
            encode_post(f"/graphs/{DATASET}/query",
                        {"oracle": kind, "source": probe[0], "target": probe[1],
                         "mask": probe[2]}),
            wire(execute_batch(references[kind], [probe])[0]),
        )
        for kind in ORACLES
    }

    args = serve_args(index_dir, scale)
    setups = harness.boots(args, probes, result, SETUPS_BEFORE)
    server, timing = harness.boot(args, probes, result, trace_out)
    setups.append(timing)
    try:
        samples = _drive(server, wire_pool, seconds, result)
        peak_rss = harness.proc_peak_rss_mb(server.pid)
    finally:
        server.stop()
    setups += harness.boots(args, probes, result, SETUPS_AFTER)

    # Correctness gate: every answer bit-identical to the in-process run.
    latencies = []
    answered = 0
    for index, start, end, status, body in samples:
        result.attempted += 1
        if status != 200:
            result.fail(f"request {index}: HTTP {status} {body[:200]!r}")
            continue
        distances = json.loads(body)["distances"]
        if distances != expected[index]:
            result.fail(f"request {index}: answers differ from execute_batch")
            continue
        latencies.append((end - start) / 1e6)
        answered += len(distances)
    window = result.notes.pop("window_s")
    slices = [ns / len(pool[0][1]) / 1e3 for ns in result.notes.pop("slice_ns_per_request")]
    result.put("setup_s", harness.median([b.wall_s for b in setups]), "s", len(setups))
    result.put("setup_cpu_s", harness.median([b.cpu_s for b in setups]), "s", len(setups))
    if latencies:
        result.put("p50_ms", harness.percentile(latencies, 50), "ms", len(latencies))
        result.put("p90_ms", harness.percentile(latencies, 90), "ms", len(latencies))
    result.put("qps", answered / window, "1/s", answered)
    if slices:
        result.put("cpu_us_per_query", harness.upper_quartile(slices), "us", len(slices))
    result.put("index_update_cpu_ms", harness.median([b.first_touch_ms for b in setups]),
               "ms", len(setups))
    result.put("index_mb", index_mb, "MB", 1)
    result.put("peak_rss_mb", peak_rss, "MB", 1)
    result.notes.update(requests=len(samples),
                        queries_per_request=len(pool[0][1]),
                        units_of_work=len(samples),
                        trace_tables=[trace_out] if trace_out else [])
    return result


def _drive(server: Server, wire_pool: list[bytes], seconds: float,
           result: Result) -> list[tuple[int, int, int, int, bytes]]:
    """Closed loop over ``CONNECTIONS`` keep-alive connections."""
    port = server.wait_port()
    connections = [Connection(port) for _ in range(CONNECTIONS)]
    for c, conn in enumerate(connections):  # warm-up, not measured
        for j in range(WARMUP_REQUESTS):
            conn.request(wire_pool[(c * len(wire_pool) // 2 + j) % len(wire_pool)])
    per_thread: list[list[tuple[int, int, int, int, bytes]]] = [[] for _ in connections]
    errors: list[BaseException] = []
    start_barrier = threading.Barrier(len(connections) + 1)
    deadline = [0.0]

    def loop(c: int) -> None:
        conn, out = connections[c], per_thread[c]
        index = c * len(wire_pool) // 2 + WARMUP_REQUESTS
        try:
            start_barrier.wait()
            while time.perf_counter() < deadline[0]:
                index %= len(wire_pool)
                started = time.perf_counter_ns()
                status, body = conn.request(wire_pool[index])
                out.append((index, started, time.perf_counter_ns(), status, body))
                index += 1
        except BaseException as exc:  # reported as a failed run below
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(c,)) for c in range(len(connections))]
    for thread in threads:
        thread.start()
    sampler = harness.HostSampler(server.pid)
    began = time.perf_counter()
    deadline[0] = began + seconds
    start_barrier.wait()
    slices = []  # server CPU ns per request answered, per whole slice
    done0, ns0 = 0, harness.proc_run_ns(server.pid)
    for k in range(1, int(seconds / SLICE_S) + 1):
        time.sleep(max(0.0, began + k * SLICE_S - time.perf_counter()))
        done1, ns1 = sum(map(len, per_thread)), harness.proc_run_ns(server.pid)
        if done1 > done0:
            slices.append((ns1 - ns0) / (done1 - done0))
        done0, ns0 = done1, ns1
    for thread in threads:
        thread.join()
    window = time.perf_counter() - began
    result.notes.update(sampler.finish())
    result.notes["slice_ns_per_request"] = slices
    for conn in connections:
        conn.close()
    if errors:
        result.fail(f"client error: {errors[0]!r}")
    result.notes["window_s"] = window
    return [s for out in per_thread for s in out]
