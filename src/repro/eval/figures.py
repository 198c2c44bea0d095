"""Regeneration of the paper's Figure 6 (landmark-selection comparison).

Figure 6 plots, per dataset and index, the average relative error as a
function of the number of landmarks ``k``, for three selectors:

* the proposed one (GreedyMVC for PowCov, local-search k-median for
  ChromLand);
* **B-Rnd** — uniformly random landmarks (random colors for ChromLand);
* **B-Best** — the best of the smarter baselines (top degree, approximate
  betweenness, vertex-cover restricted variants; majority/random colors
  for ChromLand).

:func:`figure6` computes the three series; :func:`render_figure6` prints
them as aligned text plus a coarse ASCII chart, which is what a terminal
reproduction can offer in place of the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..graph.datasets import dataset_names, load_dataset
from ..store.cache import IndexStore
from ..workloads.queries import generate_workload
from .runner import baseline_query_seconds, run_chromland, run_powcov

__all__ = ["Figure6Series", "figure6", "render_figure6"]

#: Baseline strategies pooled into B-Best for each index.
POWCOV_BBEST_POOL = ("degree", "betweenness", "vertex-cover-degree")
CHROMLAND_BBEST_POOL = ("degree-majority", "degree-random", "random-majority")


@dataclass
class Figure6Series:
    """Relative-error curves for one (dataset, index) panel."""

    dataset: str
    index: str
    ks: list[int]
    proposed: list[float] = field(default_factory=list)
    b_rnd: list[float] = field(default_factory=list)
    b_best: list[float] = field(default_factory=list)
    b_best_strategy: list[str] = field(default_factory=list)


def figure6(
    scale: float = 0.4,
    ks: tuple[int, ...] = (10, 20, 30, 40),
    num_pairs: int = 150,
    seed: int = 7,
    datasets: tuple[str, ...] | None = None,
    chromland_iterations: int = 4000,
    parallel: int | None = None,
    index_store: "IndexStore | None" = None,
) -> list[Figure6Series]:
    """Compute the Figure 6 panels for every dataset.

    ``parallel`` and ``index_store`` are passed to every
    :func:`~repro.eval.runner.run_powcov` / ``run_chromland`` call.
    """
    panels = []
    for name in datasets if datasets is not None else dataset_names():
        graph, _spec = load_dataset(name, scale=scale, seed=seed)
        workload = generate_workload(graph, num_pairs=num_pairs, seed=seed)
        base = baseline_query_seconds(graph, workload, include_ch=False)
        powcov_run = partial(
            run_powcov, graph, workload, seed=seed, baseline_seconds=base,
            parallel=parallel, index_store=index_store,
        )
        chromland_run = partial(
            run_chromland, graph, workload, seed=seed, baseline_seconds=base,
            parallel=parallel, index_store=index_store,
        )

        powcov = Figure6Series(dataset=name, index="PowCov", ks=list(ks))
        chroml = Figure6Series(dataset=name, index="ChromLand", ks=list(ks))
        for k in ks:
            run = powcov_run(k, strategy="greedy-mvc")
            powcov.proposed.append(run.metrics.relative_error)
            run = powcov_run(k, strategy="random")
            powcov.b_rnd.append(run.metrics.relative_error)
            best_err, best_name = float("inf"), "-"
            for strategy in POWCOV_BBEST_POOL:
                run = powcov_run(k, strategy=strategy)
                if run.metrics.relative_error < best_err:
                    best_err = run.metrics.relative_error
                    best_name = strategy
            powcov.b_best.append(best_err)
            powcov.b_best_strategy.append(best_name)

            run = chromland_run(k, selection="local-search",
                                iterations=chromland_iterations)
            chroml.proposed.append(run.metrics.relative_error)
            run = chromland_run(k, selection="random")
            chroml.b_rnd.append(run.metrics.relative_error)
            best_err, best_name = float("inf"), "-"
            for strategy in CHROMLAND_BBEST_POOL:
                run = chromland_run(k, selection=strategy)
                if run.metrics.relative_error < best_err:
                    best_err = run.metrics.relative_error
                    best_name = strategy
            chroml.b_best.append(best_err)
            chroml.b_best_strategy.append(best_name)
        panels.extend([powcov, chroml])
    return panels


def _ascii_chart(series: Figure6Series, width: int = 40) -> str:
    """Coarse horizontal-bar rendering of the three curves."""
    finite = [v for curve in (series.proposed, series.b_rnd, series.b_best)
              for v in curve if v == v and v != float("inf")]
    top = max(finite) if finite else 1.0
    top = top if top > 0 else 1.0
    lines = []
    for k, p, r, b in zip(series.ks, series.proposed, series.b_rnd, series.b_best):
        for label, value in (("ours", p), ("BRnd", r), ("BBst", b)):
            bar = "#" * int(round(width * min(value, top) / top))
            lines.append(f"  k={k:<4d} {label} {value:6.3f} |{bar}")
        lines.append("")
    return "\n".join(lines)


def render_figure6(panels: list[Figure6Series], charts: bool = True) -> str:
    """Text rendering of every Figure 6 panel."""
    blocks = []
    for series in panels:
        header = f"Figure 6 — {series.dataset} / {series.index} (avg relative error)"
        rows = ["  k    proposed   B-Rnd    B-Best   (best baseline)"]
        for i, k in enumerate(series.ks):
            rows.append(
                f"  {k:<4d} {series.proposed[i]:8.3f} {series.b_rnd[i]:8.3f} "
                f"{series.b_best[i]:8.3f}   {series.b_best_strategy[i]}"
            )
        block = header + "\n" + "\n".join(rows)
        if charts:
            block += "\n" + _ascii_chart(series)
        blocks.append(block)
    return "\n\n".join(blocks)
