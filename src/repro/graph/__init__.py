"""Edge-labeled graph substrate: graph type, traversal, generators, datasets."""

from __future__ import annotations

from .builder import GraphBuilder
from .delta import GraphDelta, apply_delta
from .fingerprint import delta_fingerprint, graph_fingerprint
from .labeled_graph import EdgeLabeledGraph
from .labelsets import (
    LabelUniverse,
    full_mask,
    labels_from_mask,
    mask_from_labels,
    mask_to_str,
    popcount,
)
from .traversal import (
    UNREACHABLE,
    bfs,
    bidirectional_constrained_bfs,
    connected_components,
    constrained_bfs,
    constrained_bfs_levels,
    constrained_bfs_parents,
    constrained_bfs_tree,
    constrained_dijkstra,
    constrained_distance,
    constrained_shortest_path,
    estimate_diameter,
    monochromatic_sp_labels,
)
from .stats import graph_profile, label_entropy, per_label_connectivity
from .transform import (
    collapse_rare_labels,
    extract_k_core,
    merge_labels,
    relabel_vertices,
)
from .hierarchy import LabelHierarchy
from .generators import (
    chromatic_cluster_graph,
    labeled_barabasi_albert,
    labeled_erdos_renyi,
    labeled_grid,
)
from .datasets import (
    DATASETS,
    PAPER_TABLE1,
    DatasetSpec,
    dataset_names,
    figure1_graph,
    figure2_graph,
    figure5_graph,
    load_dataset,
    paper_synthetic,
)
from .io import load_edge_list, save_edge_list

__all__ = [
    "EdgeLabeledGraph",
    "GraphBuilder",
    "GraphDelta",
    "apply_delta",
    "delta_fingerprint",
    "graph_fingerprint",
    "LabelUniverse",
    "UNREACHABLE",
    "full_mask",
    "labels_from_mask",
    "mask_from_labels",
    "mask_to_str",
    "popcount",
    "bfs",
    "bidirectional_constrained_bfs",
    "connected_components",
    "constrained_bfs",
    "constrained_bfs_levels",
    "constrained_bfs_parents",
    "constrained_bfs_tree",
    "constrained_dijkstra",
    "constrained_distance",
    "constrained_shortest_path",
    "estimate_diameter",
    "monochromatic_sp_labels",
    "graph_profile",
    "label_entropy",
    "per_label_connectivity",
    "collapse_rare_labels",
    "extract_k_core",
    "merge_labels",
    "relabel_vertices",
    "LabelHierarchy",
    "chromatic_cluster_graph",
    "labeled_barabasi_albert",
    "labeled_erdos_renyi",
    "labeled_grid",
    "DATASETS",
    "PAPER_TABLE1",
    "DatasetSpec",
    "dataset_names",
    "figure1_graph",
    "figure2_graph",
    "figure5_graph",
    "load_dataset",
    "paper_synthetic",
    "load_edge_list",
    "save_edge_list",
]
