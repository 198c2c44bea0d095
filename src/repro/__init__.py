"""repro — label-constrained distance oracles for edge-labeled graphs.

A from-scratch Python reproduction of

    F. Bonchi, A. Gionis, F. Gullo, A. Ukkonen.
    "Distance oracles in edge-labeled graphs", EDBT 2014.

Public API tour
---------------
Graphs::

    from repro import GraphBuilder, load_dataset
    builder = GraphBuilder()
    builder.add_edge("alice", "bob", "friend")
    graph = builder.build()

Indexes::

    from repro import PowCovIndex, ChromLandIndex, select_landmarks
    landmarks = select_landmarks(graph, k=16)
    oracle = PowCovIndex(graph, landmarks).build()

Serving::

    from repro import QuerySession
    session = QuerySession(oracle, cache_size=8192)
    answers = session.run([(source, target, mask), ...])

Dynamic graphs::

    from repro import GraphDelta, apply_delta, repair_index
    new_graph = apply_delta(graph, GraphDelta(insertions=((u, v, label),)))
    repair_index(oracle, new_graph)     # bit-identical to a fresh build
    session.rebind(oracle)              # still-valid answers migrate

Experiments::

    python -m repro.eval.cli all

See README.md for the full guide and DESIGN.md for the system inventory.
"""

from __future__ import annotations

from .baselines import (
    BidirectionalBFSBaseline,
    LabelConstrainedCH,
    UnidirectionalBFSBaseline,
)
from .core import (
    INF,
    ChromLandIndex,
    DistanceOracle,
    ExactDijkstraOracle,
    ExactOracle,
    LabelSetTrie,
    NaivePowersetIndex,
    PowCovIndex,
    Query,
    QueryAnswer,
    RepairStats,
    WeightedPowCovIndex,
    assert_repair_matches_rebuild,
    constrained_nearest,
    rank_candidates,
    repair_index,
)
from .core.chromland import local_search_selection, random_selection
from .engine import EngineConfig, QuerySession, execute_batch
from .graph import (
    EdgeLabeledGraph,
    GraphBuilder,
    GraphDelta,
    LabelUniverse,
    apply_delta,
    chromatic_cluster_graph,
    labeled_barabasi_albert,
    labeled_erdos_renyi,
    labeled_grid,
    load_dataset,
    load_edge_list,
    paper_synthetic,
)
from .landmarks import select_landmarks
from .store.index_store import open_index as load_index
from .store.index_store import save_index
from .workloads import Workload, generate_workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BidirectionalBFSBaseline",
    "LabelConstrainedCH",
    "UnidirectionalBFSBaseline",
    "INF",
    "ChromLandIndex",
    "DistanceOracle",
    "ExactDijkstraOracle",
    "ExactOracle",
    "LabelSetTrie",
    "NaivePowersetIndex",
    "PowCovIndex",
    "WeightedPowCovIndex",
    "Query",
    "QueryAnswer",
    "local_search_selection",
    "constrained_nearest",
    "rank_candidates",
    "load_index",
    "save_index",
    "RepairStats",
    "repair_index",
    "assert_repair_matches_rebuild",
    "random_selection",
    "EngineConfig",
    "QuerySession",
    "execute_batch",
    "EdgeLabeledGraph",
    "GraphBuilder",
    "GraphDelta",
    "apply_delta",
    "LabelUniverse",
    "chromatic_cluster_graph",
    "labeled_barabasi_albert",
    "labeled_erdos_renyi",
    "labeled_grid",
    "load_dataset",
    "load_edge_list",
    "paper_synthetic",
    "select_landmarks",
    "Workload",
    "generate_workload",
]
