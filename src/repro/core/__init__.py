"""Core distance-oracle layer: exact baseline, PowCov, ChromLand, naive index."""

from __future__ import annotations

from .chromland import ChromLandIndex, local_search_selection
from .dynamic import (
    RepairStats,
    assert_repair_matches_rebuild,
    rebuild_reference,
    repair_chromland,
    repair_index,
    repair_powcov,
)
from .exact import ExactDijkstraOracle, ExactOracle
from .naive import NaivePowersetIndex
from .nearest import constrained_nearest, rank_candidates
from .powcov import PowCovIndex, WeightedPowCovIndex
from .trie import LabelSetTrie
from .types import INF, DistanceOracle, Query, QueryAnswer

__all__ = [
    "ChromLandIndex",
    "ExactDijkstraOracle",
    "ExactOracle",
    "NaivePowersetIndex",
    "PowCovIndex",
    "WeightedPowCovIndex",
    "LabelSetTrie",
    "INF",
    "DistanceOracle",
    "Query",
    "QueryAnswer",
    "RepairStats",
    "repair_index",
    "repair_powcov",
    "repair_chromland",
    "rebuild_reference",
    "assert_repair_matches_rebuild",
    "local_search_selection",
    "constrained_nearest",
    "rank_candidates",
]
