"""Command-line entry point for the full experiment reproduction.

Usage::

    python -m repro.eval.cli table1
    python -m repro.eval.cli table2 --scale 0.5 --k 10
    python -m repro.eval.cli table3
    python -m repro.eval.cli table3 --workers 4
    python -m repro.eval.cli table4 --ks 10,20,30,40,50 --pairs 250
    python -m repro.eval.cli fig6    --ks 10,20,30,40
    python -m repro.eval.cli scaling --ks 20
    python -m repro.eval.cli profile
    python -m repro.eval.cli temporal --updates 20 --windows 6
    python -m repro.eval.cli all     --out results.txt --csv-dir results/

Every command prints the regenerated table/figure (optionally teeing into
``--out`` and exporting machine-readable CSVs into ``--csv-dir``).
Defaults are sized so that ``all`` completes in tens of minutes on a
laptop; pass a larger ``--scale`` to push toward the paper's dataset
sizes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..obs.metrics import registry
from ..store.cache import IndexStore
from .export import write_csv
from .figures import figure6, render_figure6
from .report import (
    check_figure6,
    check_table2,
    check_table3,
    check_table4,
    render_report,
)
from .scaling import render_scaling, scaling_sweep
from .tables import (
    render_rows,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    table1,
    table2,
    table3,
    table4,
)

__all__ = ["main"]


def _parse_ks(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.eval.cli",
        description="Reproduce the tables and figures of "
        "'Distance oracles in edge-labeled graphs' (EDBT 2014).",
    )
    parser.add_argument(
        "what",
        choices=["table1", "table2", "table3", "table4", "fig6",
                 "scaling", "profile", "temporal", "all"],
    )
    parser.add_argument("--scale", type=float, default=0.5,
                        help="dataset scale factor (1.0 = default stand-in size)")
    parser.add_argument("--pairs", type=int, default=250,
                        help="connected vertex pairs per workload")
    parser.add_argument("--k", type=int, default=10,
                        help="landmarks for the size/time tables")
    parser.add_argument("--ks", type=_parse_ks, default=(10, 20, 30, 40, 50),
                        help="comma-separated landmark counts for table4/fig6")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads for index construction "
                        "(1 = serial, 0 = all cores); output is identical "
                        "for every worker count")
    parser.add_argument("--save-index", metavar="DIR", default=None,
                        help="persist every index built during the run into "
                        "DIR (fingerprint-addressed files) and reuse any "
                        "already present, instead of rebuilding from "
                        "scratch on every invocation")
    parser.add_argument("--load-index", metavar="DIR", default=None,
                        help="like --save-index but read-only: reuse cached "
                        "indexes from DIR without ever writing to it")
    parser.add_argument("--index-compress", action="store_true",
                        help="with --save-index: varint/"
                        "delta-compress the integer index sections (smaller "
                        "files, eager decode on open)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="before running the command, build small "
                        "instances of both indexes and run the invariant "
                        "auditors (repro.analysis.audit) against them; "
                        "exits non-zero on any violation")
    parser.add_argument("--trace", action="store_true",
                        help="record structured spans (build waves, engine "
                        "batches, table rows) and print the rendered span "
                        "tree after the run")
    parser.add_argument("--trace-out", type=str, default=None,
                        help="write the recorded spans as JSONL to this "
                        "file (implies --trace)")
    parser.add_argument("--metrics-out", type=str, default=None,
                        help="enable the optional hot-path metrics (wave "
                        "widths, pruning counts, per-oracle query-latency "
                        "histograms) and write the registry snapshot as "
                        "JSON to this file")
    parser.add_argument("--profile", action="store_true",
                        help="profile each build/query phase with cProfile "
                        "+ tracemalloc, writing profile-<phase>.pstats/.txt "
                        "artifacts next to the results (--csv-dir if set, "
                        "else the working directory)")
    parser.add_argument("--updates", type=int, default=20,
                        help="edge mutations interleaved into the temporal "
                        "command's mixed query/update stream (each absorbed "
                        "by incremental index repair, never a rebuild)")
    parser.add_argument("--windows", type=int, default=6,
                        help="time windows for the temporal command's "
                        "snapshot sweep (edges get synthetic validity "
                        "intervals; one oracle is repaired forward across "
                        "the sequence)")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the output to this file")
    parser.add_argument("--csv-dir", type=str, default=None,
                        help="export machine-readable CSVs into this directory")
    args = parser.parse_args(argv)

    if args.workers < 0:
        parser.error("argument --workers: must be >= 0")
    tracing = args.trace or args.trace_out is not None
    if tracing:
        from ..obs.trace import reset_trace, set_tracing

        set_tracing(True)
        reset_trace()
    if args.metrics_out is not None:
        from ..obs.metrics import set_metrics

        set_metrics(True)
    if args.profile:
        from ..obs.profiling import set_profiling

        set_profiling(True, directory=args.csv_dir or ".")
    if args.save_index and args.load_index:
        parser.error("--save-index and --load-index are mutually exclusive; "
                     "--save-index already reuses cached indexes")
    index_store: IndexStore | None = None
    if args.save_index or args.load_index:
        index_store = IndexStore(
            args.save_index or args.load_index,
            compress=args.index_compress,
            writable=args.save_index is not None,
        )
    if args.selfcheck:
        from ..analysis.audit import format_report, run_selfcheck

        violations = run_selfcheck(scale=min(args.scale, 0.5), seed=args.seed)
        if violations:
            print(format_report(violations), file=sys.stderr)
            return 1
        print("[repro.eval.cli] selfcheck passed: graph substrate and both "
              "index builders uphold their invariants")

    sections: list[str] = []

    def emit(text: str) -> None:
        print(text)
        print()
        sections.append(text)

    def export(name: str, rows) -> None:
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
            write_csv(rows, os.path.join(args.csv_dir, f"{name}.csv"))

    started = time.perf_counter()
    claims = []
    if args.what in ("table1", "all"):
        rows = table1(scale=args.scale, num_pairs=args.pairs, seed=args.seed)
        emit(render_table1(rows))
        export("table1", rows)
    if args.what in ("table2", "all"):
        rows = table2(scale=args.scale, k=args.k, seed=args.seed,
                      parallel=args.workers)
        emit(render_table2(rows))
        export("table2", rows)
        claims.extend(check_table2(rows))
    if args.what in ("table3", "all"):
        rows = table3(scale=args.scale, k=max(3, args.k // 2), seed=args.seed,
                      parallel=args.workers)
        emit(render_table3(rows))
        export("table3", rows)
        claims.extend(check_table3(rows))
    if args.what in ("table4", "all"):
        cells = table4(scale=args.scale, ks=args.ks, num_pairs=args.pairs,
                       seed=args.seed, parallel=args.workers,
                       index_store=index_store)
        emit(render_table4(cells))
        export("table4", cells)
        claims.extend(check_table4(cells))
    if args.what in ("fig6", "all"):
        panels = figure6(scale=min(args.scale, 0.4), ks=args.ks[:4],
                         num_pairs=args.pairs // 2 + 50, seed=args.seed,
                         parallel=args.workers, index_store=index_store)
        emit(render_figure6(panels))
        export("figure6", panels)
        claims.extend(check_figure6(panels))
    if claims:
        emit("Paper-claim verification\n" + render_report(claims))
    if args.what in ("scaling", "all"):
        points = scaling_sweep(scales=(0.25, 0.5, min(1.0, args.scale * 2)),
                               k=args.ks[0] if args.ks else 20,
                               num_pairs=max(60, args.pairs // 3),
                               seed=args.seed, parallel=args.workers,
                               index_store=index_store)
        emit(render_scaling(points))
        export("scaling", points)
    if args.what == "temporal":
        from .temporal import render_temporal_report, temporal_report

        if args.updates < 1:
            parser.error("argument --updates: must be >= 1")
        if args.windows < 2:
            parser.error("argument --windows: must be >= 2")
        rows = temporal_report(
            scale=min(args.scale, 0.5), num_windows=args.windows,
            num_updates=args.updates, k=max(3, args.k // 2),
            num_queries=max(100, args.pairs), seed=args.seed,
            parallel=args.workers,
        )
        emit(render_temporal_report(rows))
        export("temporal", rows)
    if args.what == "profile":
        from ..graph.datasets import dataset_names, load_dataset
        from ..graph.stats import graph_profile

        headers = ["dataset", "n", "m", "|L|", "dominant label share",
                   "label entropy", "mean per-label giant", "degree gini"]
        body = []
        for name in dataset_names():
            graph, _spec = load_dataset(name, scale=args.scale, seed=args.seed)
            profile = graph_profile(graph)
            body.append([
                name, str(profile.num_vertices), str(profile.num_edges),
                str(profile.num_labels),
                f"{profile.dominant_label_share:.2f}",
                f"{profile.label_entropy_bits:.2f}",
                f"{profile.mean_giant_fraction:.2f}",
                f"{profile.degree_gini:.2f}",
            ])
        emit("Dataset structural profiles\n" + render_rows(headers, body))
    if tracing:
        from ..obs.trace import render_trace, write_jsonl

        emit(render_trace(title=f"trace ({args.what})"))
        if args.trace_out:
            write_jsonl(args.trace_out)
            print(f"[repro.eval.cli] trace JSONL written to {args.trace_out}")
    if args.metrics_out is not None:
        emit(registry().render(title="metrics"))
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry().to_json() + "\n")
        print(f"[repro.eval.cli] metrics snapshot written to {args.metrics_out}")
    elapsed = time.perf_counter() - started
    footer = f"[repro.eval.cli] completed {args.what} in {elapsed:.1f}s"
    print(footer)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(sections) + "\n" + footer + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
