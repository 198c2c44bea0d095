"""Evaluation metrics for LC-PPSPD oracles — the Table 4 measures.

For every (index, workload) pair the paper reports:

* average **absolute error** and **relative error** of the estimates with
  respect to the exact distances (over queries answered with a finite
  estimate — an infinite estimate has no meaningful error);
* fraction of **exact answers**;
* fraction of **false negatives** — finite true distance but the index
  says ``∞`` (the converse, a false positive, is impossible by
  construction and is asserted here);
* **speed-up factor** over the fastest exact baseline.

Accuracy bookkeeping and timing are separate passes: the accounting loop
carries error/exactness bookkeeping whose overhead would pollute a timing
measured around it, so ``mean_query_seconds`` comes from a dedicated
bookkeeping-free pass (skipped entirely when ``time_queries=False``).

Both passes call the scalar ``oracle.query`` once per query, the way the
paper times each index and the exact baselines alike.  The batch engine
(:mod:`repro.engine`) answers bit-identically; its speed is measured by
``benchmarks/bench_query_engine.py`` and perfbench, not here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..core.types import DistanceOracle
from ..obs.trace import span
from ..workloads.queries import Workload

__all__ = ["OracleMetrics", "evaluate_oracle", "time_oracle"]


@dataclass(frozen=True)
class OracleMetrics:
    """Aggregated query-quality and query-time measurements."""

    num_queries: int
    absolute_error: float
    relative_error: float
    exact_fraction: float
    false_negative_fraction: float
    mean_query_seconds: float

    @property
    def exact_percent(self) -> float:
        return 100.0 * self.exact_fraction

    @property
    def false_negative_percent(self) -> float:
        return 100.0 * self.false_negative_fraction


def evaluate_oracle(
    oracle: DistanceOracle,
    workload: Workload,
    time_queries: bool = True,
) -> OracleMetrics:
    """Run every workload query through ``oracle`` and aggregate.

    Workload queries all have finite ground truth (the paper's setup), so a
    non-finite estimate counts as a false negative.  Raises
    ``AssertionError`` on any estimate *below* the exact distance — every
    oracle in this package returns upper bounds, so that would be a bug,
    not a measurement.

    ``mean_query_seconds`` is measured in a dedicated pass via
    :func:`time_oracle` when ``time_queries`` is true, so error
    bookkeeping never inflates it; with ``time_queries=False`` no timing
    pass runs and the field is 0.
    """
    if len(workload) == 0:
        raise ValueError("workload is empty")
    with span("eval.evaluate_oracle", oracle=oracle.name) as eval_span:
        eval_span.count("queries", len(workload))
        estimates = [
            oracle.query(q.source, q.target, q.label_mask) for q in workload.queries
        ]

    abs_errors: list[float] = []
    rel_errors: list[float] = []
    exact_hits = 0
    false_negatives = 0
    for query, estimate in zip(workload, estimates):
        if math.isinf(estimate):
            false_negatives += 1
            continue
        error = estimate - query.exact
        if error < 0:
            raise AssertionError(
                f"oracle {oracle.name} returned {estimate} < exact "
                f"{query.exact} for query {query}"
            )
        abs_errors.append(error)
        rel_errors.append(error / query.exact if query.exact > 0 else 0.0)
        if error == 0:
            exact_hits += 1

    mean_seconds = time_oracle(oracle, workload) if time_queries else 0.0
    finite = len(abs_errors)
    return OracleMetrics(
        num_queries=len(workload),
        absolute_error=sum(abs_errors) / finite if finite else math.inf,
        relative_error=sum(rel_errors) / finite if finite else math.inf,
        exact_fraction=exact_hits / len(workload),
        false_negative_fraction=false_negatives / len(workload),
        mean_query_seconds=mean_seconds,
    )


def time_oracle(
    oracle: DistanceOracle,
    workload: Workload,
    limit: int | None = None,
) -> float:
    """Mean seconds per query over (a prefix of) the workload.

    A pure timing pass — no bookkeeping inside the measured region.
    """
    queries = workload.queries[:limit] if limit else workload.queries
    if not queries:
        raise ValueError("no queries to time")
    query = oracle.query
    started = time.perf_counter()
    for q in queries:
        query(q.source, q.target, q.label_mask)
    return (time.perf_counter() - started) / len(queries)
