"""Speed-up scaling experiment (extends the paper's Table 4 discussion).

The paper observes that index speed-ups *grow with graph size* — three
orders of magnitude on the million-edge BioMine/String versus one-two
orders on the smaller graphs — because exact query cost grows with the
graph while index query cost depends only on ``k`` (and stored entry
counts).  Our stand-ins are 10-200x smaller than the paper's graphs, so
absolute speed-ups are correspondingly smaller; this experiment makes the
*trend* measurable by sweeping the dataset scale factor and reporting the
speed-up curve.

``python -m repro.eval.scaling`` prints the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.datasets import load_dataset
from ..store.cache import IndexStore
from ..workloads.queries import generate_workload
from .runner import baseline_query_seconds, run_powcov, run_chromland
from .tables import render_rows

__all__ = ["ScalingPoint", "scaling_sweep", "render_scaling"]


@dataclass(frozen=True)
class ScalingPoint:
    """One (scale, index) measurement of the speed-up curve."""

    dataset: str
    scale: float
    num_vertices: int
    num_edges: int
    exact_query_seconds: float
    powcov_speedup: float
    chromland_speedup: float
    powcov_rel_error: float
    chromland_rel_error: float


def scaling_sweep(
    dataset: str = "biogrid-sim",
    scales: tuple[float, ...] = (0.25, 0.5, 1.0),
    k: int = 20,
    num_pairs: int = 120,
    seed: int = 7,
    chromland_iterations: int = 200,
    parallel: int | None = None,
    index_store: "IndexStore | None" = None,
) -> list[ScalingPoint]:
    """Measure exact cost and index speed-ups across dataset scales."""
    points = []
    for scale in scales:
        graph, _spec = load_dataset(dataset, scale=scale, seed=seed)
        workload = generate_workload(graph, num_pairs=num_pairs, seed=seed)
        base = baseline_query_seconds(graph, workload, include_ch=False)
        powcov = run_powcov(
            graph, workload, k, seed=seed, baseline_seconds=base,
            parallel=parallel, index_store=index_store,
        )
        chroml = run_chromland(
            graph, workload, k, iterations=chromland_iterations, seed=seed,
            baseline_seconds=base, parallel=parallel, index_store=index_store,
        )
        points.append(
            ScalingPoint(
                dataset=dataset,
                scale=scale,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                exact_query_seconds=base,
                powcov_speedup=powcov.speedup,
                chromland_speedup=chroml.speedup,
                powcov_rel_error=powcov.metrics.relative_error,
                chromland_rel_error=chroml.metrics.relative_error,
            )
        )
    return points


def render_scaling(points: list[ScalingPoint]) -> str:
    headers = ["dataset", "scale", "n", "m", "exact ms/q",
               "PowCov speed-up", "ChromLand speed-up",
               "PowCov rel err", "ChromLand rel err"]
    rows = [
        [p.dataset, f"{p.scale:.2f}", str(p.num_vertices), str(p.num_edges),
         f"{p.exact_query_seconds * 1e3:.2f}",
         f"{p.powcov_speedup:.0f}x", f"{p.chromland_speedup:.0f}x",
         f"{p.powcov_rel_error:.2f}", f"{p.chromland_rel_error:.2f}"]
        for p in points
    ]
    return (
        "Speed-up scaling sweep (speed-ups grow with graph size, as in the "
        "paper)\n" + render_rows(headers, rows)
    )


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(render_scaling(scaling_sweep()))
