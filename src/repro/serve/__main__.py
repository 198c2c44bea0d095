"""``python -m repro.serve`` — boot the distance-oracle query server.

Typical invocations::

    # serve a simulated dataset, building oracles at startup
    python -m repro.serve --dataset biogrid-sim --scale 0.2 --port 8321

    # serve prebuilt indexes from a fingerprint-keyed store directory
    python -m repro.serve --dataset biogrid-sim --scale 0.2 \\
        --index /var/lib/repro/indexes --oracle powcov --oracle chromland

    # CI: build + persist the indexes, then exit (the smoke step boots
    # the server against the warm store afterwards)
    python -m repro.serve --dataset biogrid-sim --scale 0.2 \\
        --index ./idx --build-if-missing --prepare-only

Every knob also reads a ``REPRO_SERVE_*`` environment default — see
``docs/SERVING.md`` and ``docs/DEVELOPING.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..core import (
    ChromLandIndex,
    DistanceOracle,
    ExactDijkstraOracle,
    NaivePowersetIndex,
    PowCovIndex,
)
from ..core.chromland.selection import majority_colors
from ..graph.datasets import dataset_names, load_dataset
from ..graph.labeled_graph import EdgeLabeledGraph
from ..landmarks import select_landmarks
from ..store.cache import IndexStore
from .app import ReproServer, ServeApp, ServeConfig
from .registry import GraphRegistry

__all__ = ["main"]

ORACLE_CHOICES = ("powcov", "chromland", "naive", "exact")
#: Families the index store can persist (the others rebuild at startup).
_STORABLE = ("powcov", "chromland")


def build_oracle(
    kind: str, graph: EdgeLabeledGraph, k: int, seed: int
) -> DistanceOracle:
    """Build one oracle family with the repo's default recipes."""
    if kind == "exact":
        return ExactDijkstraOracle(graph)
    landmarks = select_landmarks(graph, k, strategy="degree", seed=seed)
    if kind == "powcov":
        return PowCovIndex(graph, landmarks).build()
    if kind == "chromland":
        colors = majority_colors(graph, landmarks)
        return ChromLandIndex(graph, landmarks, colors).build()
    if kind == "naive":
        return NaivePowersetIndex(graph, landmarks).build()
    raise ValueError(f"unknown oracle kind {kind!r}")


def _parser() -> argparse.ArgumentParser:
    defaults = ServeConfig.from_env()
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve LC-PPSPD distance queries over HTTP.",
    )
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument("--dataset", default="biogrid-sim",
                        choices=dataset_names(),
                        help="simulated dataset to serve")
    parser.add_argument("--graph", default=None,
                        help="name to register the graph under "
                             "(default: the dataset name)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--oracle", action="append", default=None,
                        choices=list(ORACLE_CHOICES), dest="oracles",
                        help="oracle families to serve (repeatable; "
                             "default: powcov)")
    parser.add_argument("--k", type=int, default=16,
                        help="landmarks per oracle")
    parser.add_argument("--index", default=None, metavar="DIR",
                        help="fingerprint-keyed index store directory; "
                             "powcov/chromland load lazily from here")
    parser.add_argument("--build-if-missing", action="store_true",
                        help="build + persist any storable index the "
                             "store lacks")
    parser.add_argument("--prepare-only", action="store_true",
                        help="build/persist indexes, then exit without "
                             "serving (CI warm-up)")
    parser.add_argument("--kernel", default=defaults.kernel,
                        choices=["auto", "numpy", "cext"],
                        help="execution kernel for the query engine")
    parser.add_argument("--batch-max", type=int, default=defaults.batch_max,
                        help="flush once this many queries are pending")
    parser.add_argument("--workers", type=int, default=defaults.workers,
                        help="engine thread-pool size")
    parser.add_argument("--max-sessions", type=int,
                        default=defaults.max_sessions,
                        help="warm query sessions kept before LRU eviction")
    parser.add_argument("--cache-size", type=int, default=defaults.cache_size,
                        help="per-session answer-cache entries")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    kinds = list(dict.fromkeys(args.oracles or ["powcov"]))

    graph, spec = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    name = args.graph or args.dataset
    print(
        f"loaded {args.dataset} (scale={args.scale}): "
        f"{graph.num_vertices} vertices, {graph.num_edges} edges, "
        f"{graph.num_labels} labels [{spec.description}]"
    )

    config = ServeConfig(
        host=args.host,
        port=args.port,
        batch_max=args.batch_max,
        workers=args.workers,
        max_sessions=args.max_sessions,
        cache_size=args.cache_size,
        kernel=None if args.kernel in (None, "auto") else args.kernel,
    )
    registry = GraphRegistry(
        max_sessions=config.max_sessions,
        cache_size=config.cache_size,
        kernel=config.kernel,
    )

    store = IndexStore(args.index) if args.index else None
    if store is not None:
        for kind in kinds:
            if kind in _STORABLE and store.find(kind, graph) is None:
                if not (args.build_if_missing or args.prepare_only):
                    print(
                        f"error: no {kind!r} index for this graph in "
                        f"{store.directory!r} (use --build-if-missing)",
                        file=sys.stderr,
                    )
                    return 2
                print(f"building {kind} index (k={args.k})...")
                path = store.save(build_oracle(kind, graph, args.k, args.seed))
                print(f"saved {path}")
        if args.prepare_only:
            print("indexes prepared; exiting (--prepare-only)")
            return 0
        storable = [k for k in kinds if k in _STORABLE]
        if storable:
            registry.register_store(name, graph, store, kinds=storable)
        else:
            registry.register(name, graph)
    else:
        if args.prepare_only:
            print("--prepare-only needs --index", file=sys.stderr)
            return 2
        registry.register(name, graph)

    # Families the store cannot hold (and lazy loaders for the rest when
    # no store is configured) build at startup or on first touch.
    for kind in kinds:
        if store is not None and kind in _STORABLE:
            continue
        registry.register_loader(
            name,
            kind,
            lambda _kind=kind: build_oracle(_kind, graph, args.k, args.seed),
        )

    app = ServeApp(registry=registry, config=config)
    server = ReproServer(app)

    async def serve() -> None:
        await server.start()
        print(
            f"serving graph {name!r} (oracles: {', '.join(kinds)}) "
            f"on {server.url}"
        )
        print(
            f"  max batch {config.batch_max}, {config.workers} workers"
        )
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
