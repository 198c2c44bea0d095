"""An oracle 'service' lifecycle: build offline, persist, serve online.

Production deployments of a distance oracle separate the expensive build
from the latency-critical serving path.  This example walks the full
lifecycle on a BioMine-like graph:

1. offline: select landmarks, build PowCov + ChromLand, save both to disk;
2. online: open the indexes (no rebuild; the store files are mapped,
   not parsed), answer a mixed query stream with
   a reachability prefilter (cheap certificates first, distance estimates
   only for certified-reachable pairs);
3. report the latency budget of each stage.

Run with::

    python examples/oracle_service.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    ChromLandIndex,
    PowCovIndex,
    load_dataset,
    load_index,
    local_search_selection,
    save_index,
    select_landmarks,
)
from repro.core.reachability import LandmarkReachabilityIndex


def offline_build(graph, k: int, directory: Path) -> dict:
    timings = {}
    started = time.perf_counter()
    landmarks = select_landmarks(graph, k, strategy="greedy-mvc")
    powcov = PowCovIndex(graph, landmarks).build()
    timings["powcov build"] = time.perf_counter() - started

    started = time.perf_counter()
    selection = local_search_selection(graph, k, iterations=1500, seed=0)
    chromland = ChromLandIndex(graph, selection.landmarks, selection.colors).build()
    timings["chromland build"] = time.perf_counter() - started

    started = time.perf_counter()
    save_index(powcov, directory / "powcov.repro")
    save_index(chromland, directory / "chromland.repro")
    timings["serialize"] = time.perf_counter() - started
    return timings


def online_serve(graph, directory: Path, num_queries: int = 2000) -> dict:
    timings = {}
    started = time.perf_counter()
    powcov = load_index(directory / "powcov.repro", graph)
    load_index(directory / "chromland.repro", graph)
    timings["load"] = time.perf_counter() - started

    reach = LandmarkReachabilityIndex(graph, list(powcov.landmarks))
    reach._powcov = powcov  # reuse the loaded tables instead of rebuilding
    reach._built = True

    rng = np.random.default_rng(1)
    queries = [
        (int(rng.integers(graph.num_vertices)),
         int(rng.integers(graph.num_vertices)),
         int(rng.integers(1, 1 << graph.num_labels)))
        for _ in range(num_queries)
    ]
    started = time.perf_counter()
    certified = 0
    answered = 0
    for s, t, mask in queries:
        if not reach.reachable(s, t, mask):
            continue  # prefilter: skip uncertified pairs
        certified += 1
        if powcov.query(s, t, mask) != float("inf"):
            answered += 1
    elapsed = time.perf_counter() - started
    timings["serve"] = elapsed
    timings["per-query-us"] = elapsed / num_queries * 1e6
    timings["certified"] = certified
    timings["answered"] = answered
    return timings


def main() -> None:
    graph, spec = load_dataset("biomine-sim", scale=0.4, seed=3)
    print(f"graph ({spec.description}): {graph}")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        build = offline_build(graph, k=24, directory=directory)
        print("\noffline stage:")
        for stage, seconds in build.items():
            print(f"  {stage:<16s} {seconds:6.2f}s")
        size = sum(f.stat().st_size for f in directory.iterdir())
        print(f"  index files      {size / 1024:6.0f} KiB")

        serve = online_serve(graph, directory)
        print("\nonline stage:")
        print(f"  load             {serve['load']:6.3f}s")
        print(f"  2000 queries     {serve['serve']:6.3f}s "
              f"({serve['per-query-us']:.0f} us/query)")
        print(f"  certified reachable: {serve['certified']}, "
              f"answered: {serve['answered']}")
    print("\nThe serving path never touches the graph's edges: everything")
    print("runs off the precomputed SP-minimal tables, as a deployed")
    print("knowledge-graph ranking service would.")


if __name__ == "__main__":
    main()
