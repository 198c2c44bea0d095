"""Benchmark + budget guard for the flow analyzer (``repro.analysis.flow``).

The analyzer gates every commit (pre-commit hook, blocking CI job), so
its latency is a product property: every run is a full pass over
``src/repro`` and must land well under the 10 s budget documented in
``docs/ANALYSIS.md``. The non-benchmark test enforces the budget on every
run; the ``pytest-benchmark`` entry records the trend.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.analysis.flow import analyze_paths

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: Seconds allowed for one full pass over src/repro.
FLOW_BUDGET_S = 10.0


def test_flow_pass_meets_budget():
    started = time.perf_counter()
    analyze_paths([SRC])
    cold_s = time.perf_counter() - started
    print(f"\nflow pass over src/repro: {cold_s:.2f}s (budget {FLOW_BUDGET_S:.0f}s)")
    assert cold_s < FLOW_BUDGET_S, f"flow pass took {cold_s:.2f}s"


@pytest.mark.benchmark(group="flow-analysis")
def test_bench_flow_cold(benchmark):
    results = benchmark(analyze_paths, [SRC])
    assert isinstance(results, list)
