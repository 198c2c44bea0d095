"""Self-test of the benchmark: every workload at tiny scale, short window.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs untraced and traced through ``perfbench/run.py``; the
test asserts that the correctness gate passed, that every end-to-end
metric is printed and positive, and that the traced run prints every
per-layer metric, non-zero for the layers the workload exercises.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import trace_layers  # noqa: E402

TINY_SCALE = "0.1"
SECONDS = "3"

_ENGINE = {
    "engine.plan_us", "engine.prepare_mask_us",
    "engine.exec_us_per_query.powcov", "engine.exec_us_per_query.chromland",
}
_BUILDS = {
    "traversal.bfs_ms", "traversal.bfs_calls", "landmarks.select_ms",
    "powcov.build_s", "chromland.build_ms", "powcov.entries", "powcov.sssp",
}
_SERVE = {
    "serve.handle_us", "serve.encode_us", "batcher.wait_us",
    "batcher.queries_per_flush", "registry.load_ms",
}
#: Per-layer metrics each workload must report as non-zero.
APPLIES = {
    "features": _ENGINE | _SERVE | {
        "engine.run_us_per_query", "engine.plan_cache_hit_ratio",
        "engine.first_run_ms", "kernels.aux_dijkstra_us",
        "kernels.aux_dijkstra_calls", "store.open_ms",
    },
    "churn": _ENGINE | _BUILDS | _SERVE | {
        "engine.run_us_per_query",
        "registry.apply_delta_ms", "engine.answer_cache_hit_ratio",
        "engine.rebind_ms", "kernels.msbfs_ms", "kernels.msbfs_calls",
        "delta.apply_ms", "dynamic.repair_ms.insert",
        "dynamic.repair_ms.delete", "dynamic.repair_ms.relabel",
        "dynamic.landmarks_resweep",
    },
    "build": _ENGINE | _BUILDS | {
        "engine.run_us_per_query", "engine.first_run_ms", "store.save_s",
        "store.open_ms",
    },
}


def _run(workload: str, trace: int) -> tuple[int, dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", SECONDS, "--trace", str(trace),
         "--scale", TINY_SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]), done.stdout + done.stderr


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload: str) -> None:
    code, result, output = _run(workload, 0)
    assert code == 0, output
    assert result["correct"] and result["failed"] == 0, output
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END), output
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, (name, output)
    for name in run.END_TO_END:
        assert f"  {name} " in output  # the human-readable table, with n=


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload: str) -> None:
    code, result, output = _run(workload, 1)
    assert code == 0, output
    assert result["correct"], output
    assert set(result["metrics"]) == set(trace_layers.LAYER_UNITS), output
    zero = sorted(
        name for name in APPLIES[workload]
        if not result["metrics"][name]["value"] > 0
    )
    assert not zero, (zero, output)
    assert "spans (calls, total ms, self ms)" in output


def test_missing_program_exits_nonzero_without_a_result(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
