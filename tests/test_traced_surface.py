"""The program surface that perfbench's traced runs wrap.

``perfbench/trace_layers.py`` wraps public functions and methods of the
package by name, and its hooks read session internals: the hook on
``QuerySession.rebind`` calls ``cache_info()["cached_answers"]`` and
``stats.counters``.  A rename there breaks only the traced benchmark run
(every delta then fails inside the hook), so this test installs the
tracer in a fresh interpreter, drives the layers a ``churn`` and a
``build`` run touch, and checks that every expected span was recorded.
A subprocess keeps the tracer's patches out of this test process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys, tempfile
sys.path[:0] = [{src!r}, {perfbench!r}]
import trace_layers

tracer = trace_layers.Tracer()
trace_layers.install(tracer)

from repro.core import ChromLandIndex, PowCovIndex
from repro.core.chromland.selection import majority_colors
from repro.graph.delta import GraphDelta
from repro.graph.generators import labeled_erdos_renyi
from repro.landmarks import select_landmarks
from repro.serve import GraphRegistry
from repro.store.cache import IndexStore

graph = labeled_erdos_renyi(30, 60, num_labels=3, seed=3)
landmarks = select_landmarks(graph, 4, strategy="degree", seed=3)
colors = majority_colors(graph, landmarks)
registry = GraphRegistry()
registry.register("g", graph)
registry.register_loader("g", "powcov", lambda: PowCovIndex(graph, landmarks).build())
registry.register_loader(
    "g", "chromland", lambda: ChromLandIndex(graph, landmarks, colors).build()
)
queries = [(s, (s * 7 + 1) % 30, 1 + s % 7) for s in range(30)]
for kind in ("powcov", "chromland"):
    registry.session("g", kind).run(queries)
    registry.session("g", kind).run(queries)  # answered from the cache
u, v = next(
    (u, v) for u in range(30) for v in range(u + 1, 30) if not graph.has_edge(u, v)
)
registry.apply_delta("g", GraphDelta(insertions=((u, v, 0),)))
for kind in ("powcov", "chromland"):
    registry.session("g", kind).run(queries)
with tempfile.TemporaryDirectory() as directory:
    store = IndexStore(directory)
    store.save(registry.oracle("g", "powcov"))
    assert store.load("powcov", registry.graph("g")) is not None
print(json.dumps(tracer.table()))
"""

#: Span names the per-layer metrics of ``churn`` and ``build`` are read from.
EXPECTED_SPANS = {
    "engine.run",
    "engine.rebind",
    "registry.load",
    "registry.apply_delta",
    "delta.apply",
    "dynamic.repair",
    "powcov.build",
    "chromland.build",
    "store.save",
    "store.open",
}


def test_tracer_records_every_layer_of_churn_and_build():
    script = _SCRIPT.format(src=str(REPO / "src"), perfbench=str(REPO / "perfbench"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    table = json.loads(done.stdout.strip().splitlines()[-1])
    assert EXPECTED_SPANS <= set(table["spans"]), sorted(table["spans"])
    # The rebind hook read the session's cached answers before each rebind.
    assert table["counts"]["engine.rebind_cached"] > 0
    assert table["counts"]["engine.cache_hits"] > 0
