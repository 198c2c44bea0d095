"""``churn``: writes beside reads on an in-memory server.

The server boots the serve CLI's default way (no ``--index``), so both
oracles are built in memory on first touch.  One connection sends
single-query lookups drawn with Zipf skew from a hot set of
``size_skewed_stream`` triples that fits the answer cache; the other sends
single-edge deltas from ``mixed_update_stream`` in a closed loop with a
fixed think time, cycling insertion, deletion and relabel.  The delta
script is the same for every seed: one delta's cost varies tenfold with
the edge it touches, so a per-seed script made the median delta time
follow the draw instead of the code.  The seed draws the lookups and the
final probe batch.  After the window, a probe batch sent over HTTP must
equal oracles rebuilt from scratch on the final graph: the whole hot set,
answered from the answer cache as ``QuerySession.rebind`` migrated it,
and fresh triples answered by the repaired oracles.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path

import harness
from harness import Connection, Result, Server, encode_post, wire

DATASET = "biogrid-sim"
SCALE = 0.2  # the serve CLI's default
GRAPH_SEED = 7
K = 16
ORACLES = ("powcov", "chromland")
HOT_SET = 2000
ZIPF_EXPONENT = 1.0
THINK_S = 0.3
#: Seed and length of the fixed delta script (longer than any window uses).
DELTA_SEED = 7
DELTAS = 150
#: The script's first deltas, whose mean CPU is the per-delta metric: the
#: same deltas in every run (a window holds 25-29), since one delta's cost
#: varies tenfold with its kind and edge.  The writer goes on past the
#: window until it has sent them.
MEASURED_DELTAS = 18
PROBES = 256
#: Queries per probe request: the server's default ``batch_max``.
PROBE_CHUNK = 256
#: Server boots timed before the window and after it (see wl_features).
SETUPS_BEFORE = 3
SETUPS_AFTER = 3
#: The (wall, CPU) cost metrics the tracing overhead is read from.
OVERHEAD_BASIS = ("index_update_ms", "index_update_cpu_ms")
KINDS = ("insertions", "deletions", "relabels")


def serve_args(scale: float) -> list[str]:
    args = ["--dataset", DATASET, "--scale", str(scale), "--seed", str(GRAPH_SEED),
            "--k", str(K)]
    for oracle in ORACLES:
        args += ["--oracle", oracle]
    return args


def make_deltas(graph, seed: int, count: int) -> list:
    """``count`` single-edge deltas from ``mixed_update_stream``, in a fixed
    insertion/deletion/relabel cycle, each valid on the graph as mutated
    by the ones before it."""
    from repro.graph.delta import GraphDelta, apply_delta
    from repro.workloads.streams import mixed_update_stream

    pools: dict[str, list] = {kind: [] for kind in KINDS}
    for item in mixed_update_stream(graph, 40 * count, 4 * count, seed=seed):
        if isinstance(item, GraphDelta):
            kind = next(k for k in KINDS if getattr(item, k))
            pools[kind].append(item)
    chosen, current = [], graph
    cursors = dict.fromkeys(KINDS, 0)
    while len(chosen) < count:
        kind = KINDS[len(chosen) % len(KINDS)]
        pool = pools[kind]
        while cursors[kind] < len(pool):
            delta = pool[cursors[kind]]
            cursors[kind] += 1
            try:
                current = apply_delta(current, delta)
            except (ValueError, KeyError):
                continue  # an earlier pick already changed this edge
            chosen.append(delta)
            break
        else:
            raise harness.BenchError(f"ran out of valid {kind} deltas")
    return chosen


def reference_oracles(initial, graph) -> dict:
    """PowCov and ChromLand on ``graph`` with the landmarks and colors the
    server picked for ``initial`` (repairs keep them)."""
    from repro.core import ChromLandIndex, PowCovIndex
    from repro.core.chromland.selection import majority_colors
    from repro.landmarks import select_landmarks

    landmarks = select_landmarks(initial, K, strategy="degree", seed=GRAPH_SEED)
    colors = majority_colors(initial, landmarks)
    return {
        "powcov": PowCovIndex(graph, landmarks).build(),
        "chromland": ChromLandIndex(graph, landmarks, colors).build(),
    }


def _saved_mb(oracles: dict, directory: Path) -> float:
    """Bytes of ``oracles`` saved with ``IndexStore.save``, in MiB."""
    from repro.store.cache import IndexStore

    shutil.rmtree(directory, ignore_errors=True)
    store = IndexStore(directory)
    size = sum(Path(store.save(index)).stat().st_size for index in oracles.values())
    shutil.rmtree(directory, ignore_errors=True)
    return size / 2**20


def run(seed: int, seconds: float, scale: float | None, trace_out: Path | None) -> Result:
    import numpy as np

    from repro.engine import execute_batch
    from repro.graph.datasets import load_dataset
    from repro.graph.delta import apply_delta
    from repro.workloads.streams import size_skewed_stream

    scale = SCALE if scale is None else scale
    result = Result()
    initial, _spec = load_dataset(DATASET, scale=scale, seed=GRAPH_SEED)
    rng = np.random.default_rng(seed)
    hot = size_skewed_stream(initial, HOT_SET, seed=seed)
    weights = 1.0 / np.arange(1, HOT_SET + 1) ** ZIPF_EXPONENT
    picks = rng.choice(HOT_SET, size=200_000, p=weights / weights.sum())
    path = f"/graphs/{DATASET}/query"
    lookups = [
        [encode_post(path, {"oracle": kind, "source": s, "target": t, "mask": m})
         for (s, t, m) in hot]
        for kind in ORACLES
    ]
    deltas = make_deltas(initial, DELTA_SEED, DELTAS)
    wire_deltas = [
        encode_post(f"/graphs/{DATASET}/delta", {
            "insertions": [list(op) for op in d.insertions],
            "deletions": [list(op) for op in d.deletions],
            "relabels": [list(op) for op in d.relabels],
        })
        for d in deltas
    ]
    first = reference_oracles(initial, initial)
    probes = {
        kind: (lookups[i][0], wire(execute_batch(first[kind], [hot[0]])[0]))
        for i, kind in enumerate(ORACLES)
    }

    args = serve_args(scale)
    setups = harness.boots(args, probes, result, SETUPS_BEFORE)
    server, timing = harness.boot(args, probes, result, trace_out)
    setups.append(timing)
    try:
        reads, writes, window = _drive(server, lookups, picks, wire_deltas, seconds, result)
        peak_rss = harness.proc_peak_rss_mb(server.pid)
        # Correctness gate: repair = rebuild, end to end.
        graph = initial
        for delta, (_s, _e, status, body, _c0, _c1) in zip(deltas, writes):
            result.attempted += 1
            if status != 200:
                result.fail(f"delta: HTTP {status} {body[:200]!r}")
                break
            graph = apply_delta(graph, delta)
        rebuilt = reference_oracles(initial, graph)
        probe_batch = hot + size_skewed_stream(initial, PROBES, seed=seed + 1)
        conn = Connection(server.wait_port())
        for kind in ORACLES:
            want = [wire(d) for d in execute_batch(rebuilt[kind], probe_batch)]
            for at in range(0, len(probe_batch), PROBE_CHUNK):
                chunk = probe_batch[at:at + PROBE_CHUNK]
                result.attempted += 1
                status, body = conn.request(encode_post(
                    path, {"oracle": kind, "queries": [list(q) for q in chunk]}))
                if (status != 200
                        or json.loads(body)["distances"] != want[at:at + PROBE_CHUNK]):
                    result.fail(f"final probe on {kind}, queries {at}-: "
                                "served answers differ from a rebuild")
        conn.close()
    finally:
        server.stop()
    setups += harness.boots(args, probes, result, SETUPS_AFTER)

    latencies = []
    for start, end, status, body in reads:
        result.attempted += 1
        if status != 200 or "distance" not in json.loads(body):
            result.fail(f"lookup: HTTP {status} {body[:200]!r}")
            continue
        latencies.append((end - start) / 1e6)
    # Read-side server CPU: only the think gaps, when no delta is in flight.
    gap_cpu_ns, gap_reads = 0, 0
    for (_s0, e0, _st0, _b0, _c00, c01), (s1, _e1, _st1, _b1, c10, _c11) in zip(writes, writes[1:]):
        in_gap = sum(1 for start, end, _st, _b in reads if start >= e0 and end <= s1)
        if in_gap:
            gap_cpu_ns += c10 - c01
            gap_reads += in_gap
    delta_ms = [(end - start) / 1e6 for start, end, *_ in writes]
    delta_cpu_ms = [(c1 - c0) / 1e6 for *_, c0, c1 in writes]
    result.put("setup_s", harness.median([b.wall_s for b in setups]), "s", len(setups))
    result.put("setup_cpu_s", harness.median([b.cpu_s for b in setups]), "s", len(setups))
    if latencies:
        result.put("p50_ms", harness.percentile(latencies, 50), "ms", len(latencies))
        result.put("p90_ms", harness.percentile(latencies, 90), "ms", len(latencies))
    result.put("qps", len(latencies) / window, "1/s", len(latencies))
    if gap_reads:
        result.put("cpu_us_per_query", gap_cpu_ns / gap_reads / 1e3, "us", gap_reads)
    if writes:
        result.put("index_update_ms", harness.median(delta_ms), "ms", len(writes))
        measured = delta_cpu_ms[:MEASURED_DELTAS]
        result.put("index_update_cpu_ms", sum(measured) / len(measured), "ms", len(measured))
    result.put("index_mb", _saved_mb(first, harness.WORK / f"churn-index-{seed}"), "MB", 1)
    result.put("peak_rss_mb", peak_rss, "MB", 1)
    result.notes.update(deltas=len(writes), lookups=len(reads),
                        units_of_work=len(writes),
                        trace_tables=[trace_out] if trace_out else [])
    return result


def _drive(server: Server, lookups, picks, wire_deltas, seconds: float, result: Result):
    """Lookups on one connection, deltas with think time on the other."""
    port = server.wait_port()
    reader, writer = Connection(port), Connection(port)
    for j in range(200):  # warm the answer cache, not measured
        reader.request(lookups[j % 2][picks[j]])
    reads: list[tuple[int, int, int, bytes]] = []
    writes: list[tuple[int, int, int, bytes, int, int]] = []
    errors: list[BaseException] = []
    stop = threading.Event()
    pid = server.pid

    def read_loop() -> None:
        j = 200
        try:
            while not stop.is_set():
                raw = lookups[j % 2][picks[j % len(picks)]]
                started = time.perf_counter_ns()
                status, body = reader.request(raw)
                reads.append((started, time.perf_counter_ns(), status, body))
                j += 1
        except BaseException as exc:  # reported as a failed run below
            errors.append(exc)

    def write_loop() -> None:
        try:
            for raw in wire_deltas:
                if stop.wait(THINK_S) and len(writes) >= MEASURED_DELTAS:
                    return
                cpu0 = harness.proc_run_ns(pid)
                started = time.perf_counter_ns()
                status, body = writer.request(raw)
                ended = time.perf_counter_ns()
                writes.append((started, ended, status, body, cpu0, harness.proc_run_ns(pid)))
                if status != 200:
                    return
        except BaseException as exc:  # reported as a failed run below
            errors.append(exc)

    sampler = harness.HostSampler(pid)
    began = time.perf_counter()
    reading = threading.Thread(target=read_loop)
    writing = threading.Thread(target=write_loop)
    reading.start()
    writing.start()
    stop.wait(seconds)
    stop.set()
    reading.join()
    window = time.perf_counter() - began
    result.notes.update(sampler.finish())
    writing.join()
    reader.close()
    writer.close()
    if errors:
        result.fail(f"client error: {errors[0]!r}")
    if len(writes) == len(wire_deltas):
        result.fail("the window outlasted the prepared deltas")
    return reads, writes, window
