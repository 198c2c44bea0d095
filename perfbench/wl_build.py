"""``build``: dataset to saved index to first answer, in-process.

For ``biogrid-sim`` and ``dblp-sim`` at scale 0.25, each pass builds both
oracles with the serve CLI's ``build_oracle`` recipe (library-default
builder and kernel), saves them with ``IndexStore.save``, reopens the
files and checks that the answers did not change.  After the passes, the
cold-start path — ``IndexStore.load``, a fresh ``QuerySession`` and its
first ``run`` — is timed on the saved PowCov files, many times.
"""

from __future__ import annotations

import gc
import itertools
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import Result

DATASETS = ("biogrid-sim", "dblp-sim")
#: 0.25, not 1.0: a run must hold several passes (about 4 s each here,
#: 15 s at scale 1.0) for its upper quartile to be steady.
SCALE = 0.25
GRAPH_SEED = 7
K = 16
ORACLES = ("powcov", "chromland")
PROBES = 512
#: Cold starts after each pass.
COLD_PER_PASS = 200
#: Fresh set-up processes timed before the passes and after them: the
#: host's speed changes in phases of 25-35 s.
SETUPS_BEFORE = 3
SETUPS_AFTER = 3
#: The (wall, CPU) cost metrics the tracing overhead is read from.
OVERHEAD_BASIS = ("index_update_ms", "index_update_cpu_ms")

_SETUP_CHILD = """
import sys, time
sys.path.insert(0, {src!r})
from repro.graph.datasets import load_dataset
for name in {datasets!r}:
    load_dataset(name, scale={scale!r}, seed={seed!r})
print("ready", flush=True)
"""


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_time(scale: float) -> tuple[float, float]:
    """Process start to both dataset graphs in memory, in a fresh process:
    (wall s, CPU s)."""
    code = _SETUP_CHILD.format(src=str(harness.SRC), datasets=DATASETS,
                               scale=scale, seed=GRAPH_SEED)
    cpu0 = _children_cpu_s()
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=harness.ROOT,
                          env=harness.program_env(), capture_output=True,
                          text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or "ready" not in done.stdout:
        raise harness.BenchError(f"graph set-up failed:\n{done.stderr}")
    return elapsed, _children_cpu_s() - cpu0


def first_answers(items: list, result: Result) -> list[tuple[float, float]]:
    """Open an index file and answer a first query, once per item.

    Each item is ``(store, kind, graph, query, expected answer)``; the path
    is the registry's first touch: ``IndexStore.load``, a new
    ``QuerySession`` and its first ``run``.  Returns (wall ms, CPU us)
    per item.  Garbage is collected first so earlier work is not charged.
    """
    from repro.engine import QuerySession

    gc.collect()
    samples = []
    for store, kind, graph, query, want in items:
        w0, c0 = time.perf_counter_ns(), time.process_time_ns()
        answer = QuerySession(store.load(kind, graph)).run([query])
        c1, w1 = time.process_time_ns(), time.perf_counter_ns()
        samples.append(((w1 - w0) / 1e6, (c1 - c0) / 1e3))
        result.attempted += 1
        if answer != [want]:
            result.fail(f"opening a {kind} file: wrong first answer")
    return samples


def run(seed: int, seconds: float, scale: float | None, trace_out: Path | None) -> Result:
    import numpy as np

    from repro.engine import execute_batch
    from repro.graph.datasets import load_dataset
    from repro.serve.__main__ import build_oracle
    from repro.store.cache import IndexStore
    from repro.workloads.streams import size_skewed_stream

    scale = SCALE if scale is None else scale
    result = Result()
    tracer = None
    if trace_out is not None:
        import trace_layers

        tracer = trace_layers.Tracer()
    setups = [_setup_time(scale) for _ in range(SETUPS_BEFORE)]
    graphs = {name: load_dataset(name, scale=scale, seed=GRAPH_SEED)[0] for name in DATASETS}
    probes = {name: size_skewed_stream(g, PROBES, seed=seed) for name, g in graphs.items()}
    if tracer is not None:
        trace_layers.install(tracer)

    run_dir = harness.WORK / f"build-{seed}"
    pass_wall, pass_cpu = [], []
    cold: list[tuple[float, float]] = []
    cold_wall = 0.0
    expected: dict[str, list[float]] = {}
    index_bytes = 0
    order = np.random.default_rng(seed).integers(PROBES, size=COLD_PER_PASS).tolist()
    sampler = harness.HostSampler()
    began = time.perf_counter()
    while not pass_wall or time.perf_counter() - began < seconds:
        shutil.rmtree(run_dir, ignore_errors=True)
        store = IndexStore(run_dir)
        wall = cpu = 0.0
        for name, graph in graphs.items():
            for kind in ORACLES:
                w0, c0 = time.perf_counter(), time.process_time()
                index = build_oracle(kind, graph, K, GRAPH_SEED)
                path = store.save(index)
                wall += time.perf_counter() - w0
                cpu += time.process_time() - c0
                # Correctness gate: the same answers before the save and
                # after reopening the file.
                before = execute_batch(index, probes[name])
                result.attempted += 1
                reopened = store.load(kind, graph)
                if reopened is None or execute_batch(reopened, probes[name]) != before:
                    result.fail(f"{name}/{kind}: answers changed across save and reopen")
                if kind == "powcov":
                    expected[name] = before
                if not pass_wall:
                    index_bytes += Path(path).stat().st_size
        pass_wall.append(wall)
        pass_cpu.append(cpu)

        # Cold start, spread over the run: open a saved PowCov file in a
        # fresh session and answer a first query.
        w0 = time.perf_counter()
        cold += first_answers([
            (store, "powcov", graphs[name], probes[name][j], expected[name][j])
            for name, j in zip(itertools.cycle(DATASETS), order)
        ], result)
        cold_wall += time.perf_counter() - w0
    result.notes.update(sampler.finish())
    shutil.rmtree(run_dir, ignore_errors=True)
    setups += [_setup_time(scale) for _ in range(SETUPS_AFTER)]

    result.put("setup_s", harness.median([w for w, _ in setups]), "s", len(setups))
    result.put("setup_cpu_s", harness.median([c for _, c in setups]), "s", len(setups))
    cold_ms = [w for w, _ in cold]
    result.put("p50_ms", harness.percentile(cold_ms, 50), "ms", len(cold_ms))
    result.put("p90_ms", harness.percentile(cold_ms, 90), "ms", len(cold_ms))
    result.put("qps", len(cold_ms) / cold_wall, "1/s", len(cold_ms))
    result.put("cpu_us_per_query", harness.upper_quartile([c for _, c in cold]), "us", len(cold))
    result.put("index_update_ms", harness.upper_quartile(pass_wall) * 1e3, "ms", len(pass_wall))
    result.put("index_update_cpu_ms", harness.upper_quartile(pass_cpu) * 1e3, "ms", len(pass_cpu))
    result.put("index_mb", index_bytes / 2**20, "MB", 1)
    result.put("peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    result.notes.update(passes=len(pass_wall),
                        pass_ms_median=round(harness.median(pass_wall) * 1e3, 1),
                        units_of_work=len(pass_wall), trace_tables=[])
    if tracer is not None:
        assert trace_out is not None
        tracer.dump(trace_out)
        result.notes["trace_tables"] = [trace_out]
    return result
