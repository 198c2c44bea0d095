"""SP-minimal label-set enumeration — Algorithms 1 and 2 of the paper.

Given a landmark ``x``, a label set ``C`` is *SP-minimal* with respect to
``(x, u)`` iff no proper subset ``S ⊂ C`` achieves the same constrained
distance ``d_S(x, u) = d_C(x, u)`` (Definitions 1-2).  The PowCov index
stores, per landmark-vertex pair, exactly the SP-minimal sets with their
distances; Theorem 1 shows every constrained distance is recoverable from
them.

Two builders are provided:

* :func:`brute_force_sp_minimal` — Algorithm 1 (TraversePowerset-BruteForce):
  one constrained SSSP per label set, then the Theorem 2 one-label-removed
  test on every reachable vertex.
* :func:`traverse_powerset` — Algorithm 2 (TraversePowerset), adding the
  paper's four pruning rules:

  - **Observation 1** (skip unnecessary label sets): ``C`` disconnected from
    ``x`` iff ``C ∩ L_x = ∅`` where ``L_x`` are the labels incident to ``x``;
  - **Observation 2** (skip unnecessary tests): ``C`` can only be SP-minimal
    for vertices at distance ``≥ |C|``;
  - **Observation 3** (O(1) negative test): a monochromatic unconstrained
    shortest path with label ``l_u`` makes every ``C ⊋ {l_u}``
    non-SP-minimal;
  - **Observation 4** (O(1) positive test): if every shortest-path
    predecessor of ``u`` (within ``C``) is SP-minimal for ``C``, so is ``u``.

  Each rule can be toggled independently for the pruning-ablation benchmark.

Both builders return identical results (property-tested); they differ only
in running time, which is what Table 3 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ...graph.labeled_graph import EdgeLabeledGraph
from ...graph.labelsets import (
    full_mask,
    iter_one_removed,
    label_bit,
    popcount,
    singleton_masks,
)
from ...graph.traversal import (
    UNREACHABLE,
    constrained_bfs,
    constrained_bfs_tree,
    monochromatic_sp_labels,
)
from .table import run_lengths

__all__ = [
    "BIG",
    "EntryParts",
    "LandmarkSPMinimal",
    "generate_candidates",
    "generate_candidates_apriori",
    "brute_force_sp_minimal",
    "traverse_powerset",
]

#: Internal "infinite" distance; small enough that sums cannot overflow int32.
BIG = np.int32(2**30)


def _no_entries() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


class EntryParts:
    """Entries as the builders emit them, mask by mask, before
    :meth:`LandmarkSPMinimal.set_entries` sorts them."""

    __slots__ = ("vertex", "dist", "mask")

    def __init__(self) -> None:
        self.vertex: list[np.ndarray] = []
        self.dist: list[np.ndarray] = []
        self.mask: list[np.ndarray] = []

    def add(self, vertices: np.ndarray, dists: np.ndarray, masks: "np.ndarray | int") -> None:
        """Emit ``(vertices[i], dists[i], masks[i])``; a scalar mask is shared."""
        self.vertex.append(vertices.astype(np.int64, copy=False))
        self.dist.append(dists)
        self.mask.append(np.broadcast_to(np.asarray(masks, dtype=np.int64), vertices.shape))


@dataclass(eq=False)
class LandmarkSPMinimal:
    """SP-minimal sets of one landmark, plus build statistics.

    ``vertex``, ``dist`` and ``mask`` are parallel arrays holding one
    entry per SP-minimal label set w.r.t. ``(landmark, vertex)``, sorted
    by ``(vertex, dist, mask)`` — one landmark's block of the
    :class:`~repro.core.powcov.table.PowCovTable`.  The landmark itself has
    no entries.
    """

    landmark: int
    vertex: np.ndarray = field(default_factory=_no_entries)
    dist: np.ndarray = field(default_factory=_no_entries)
    mask: np.ndarray = field(default_factory=_no_entries)
    num_sssp: int = 0
    num_full_tests: int = 0
    num_auto_minimal: int = 0

    def set_entries(self, parts: "EntryParts") -> None:
        """Store the emitted entries in ``(vertex, dist, mask)`` order."""
        if not parts.vertex:
            return
        vertex = np.concatenate(parts.vertex)
        dist = np.concatenate(parts.dist)
        if dist.dtype.kind in "iu":
            dist = dist.astype(np.int64)
        mask = np.concatenate(parts.mask)
        order = np.lexsort((mask, dist, vertex))
        self.vertex, self.dist, self.mask = vertex[order], dist[order], mask[order]

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vertex, dist, mask)``, the input of ``PowCovTable.from_landmarks``."""
        return self.vertex, self.dist, self.mask

    def stats_only(self) -> "LandmarkSPMinimal":
        """A copy keeping the build counters and dropping the entries."""
        return replace(
            self, vertex=_no_entries(), dist=_no_entries(), mask=_no_entries()
        )

    @property
    def entries(self) -> dict[int, list[tuple[int, int]]]:
        """Per vertex, the ``(distance, mask)`` pairs (derived, read-only)."""
        out: dict[int, list[tuple[int, int]]] = {}
        for u, d, m in zip(
            self.vertex.tolist(), self.dist.tolist(), self.mask.tolist()
        ):
            out.setdefault(u, []).append((d, m))
        return out

    @property
    def total_entries(self) -> int:
        """Total SP-minimal sets stored for this landmark."""
        return len(self.vertex)

    def max_entries_per_vertex(self) -> int:
        """The paper's ``H`` for this landmark (Proposition 1 bound)."""
        counts = run_lengths(self.vertex)
        return int(counts.max()) if len(counts) else 0


def _clean(dist: np.ndarray) -> np.ndarray:
    """Replace the ``-1`` unreachable sentinel by :data:`BIG`."""
    return np.where(dist == UNREACHABLE, BIG, dist.astype(np.int32))


def generate_candidates(graph: EdgeLabeledGraph, landmark: int) -> list[int]:
    """Label sets surviving Observation 1, by direct bitmask filtering.

    ``C`` is useful for landmark ``x`` iff ``C ∩ L_x ≠ ∅``; everything else
    leaves ``x`` isolated.  With ``|L|`` in the tens, scanning all ``2^|L|``
    masks is cheap; :func:`generate_candidates_apriori` is the paper's
    level-wise Function 1 producing the same set.
    """
    incident = graph.incident_label_mask(landmark)
    return [mask for mask in range(1, full_mask(graph.num_labels) + 1) if mask & incident]


def generate_candidates_apriori(graph: EdgeLabeledGraph, landmark: int) -> list[int]:
    """Function 1 of the paper: Apriori-style candidate generation.

    Candidates are enumerated bottom-up on the *complements*: a complement
    set ``B`` is pruned as soon as ``B ⊇ L_x`` (then ``L \\ B`` misses every
    label incident to the landmark), and by anti-monotonicity no superset of
    ``B`` needs to be generated.  The emitted candidates are the complements
    ``L \\ B`` of the surviving ``B``, plus the full label set ``L`` itself
    (the complement of the empty set, which the level-wise loop never
    reaches but the algorithm needs for ``SingleLabelSP``).
    """
    universe = full_mask(graph.num_labels)
    incident = graph.incident_label_mask(landmark)
    if incident == 0:
        return []
    # The full set L is the complement of the empty set; the level-wise loop
    # starts at singletons, so emit it up front (Line 8 of Algorithm 2 needs
    # the unconstrained SSSP in any case).
    emitted: set[int] = {universe}
    level = [
        single
        for single in singleton_masks(graph.num_labels)
        if (single & incident) != incident
    ]
    while level:
        level_set = set(level)
        for complement in level:
            candidate = universe ^ complement
            if candidate:
                emitted.add(candidate)
        next_level: set[int] = set()
        for complement in level:
            # Extend with labels above the highest bit: each set is built
            # exactly once, in sorted label order.
            for label in range(complement.bit_length(), graph.num_labels):
                joined = complement | label_bit(label)
                if joined in next_level:
                    continue
                if (joined & incident) == incident:
                    continue  # B ⊇ L_x: complement misses every incident label
                # Anti-monotone check: all one-removed subsets survived.
                if any(sub not in level_set for sub in iter_one_removed(joined)):
                    continue
                next_level.add(joined)
        level = sorted(next_level)
    return sorted(emitted)


def brute_force_sp_minimal(
    graph: EdgeLabeledGraph,
    landmark: int,
    distances_out: dict[int, np.ndarray] | None = None,
) -> LandmarkSPMinimal:
    """Algorithm 1: all SSSPs, then the Theorem 2 test on every vertex.

    ``distances_out``, when supplied, receives the cleaned distance vector
    of every label set (callers reuse them, e.g. the naive-index size
    accounting of Table 2).
    """
    result = LandmarkSPMinimal(landmark=landmark)
    universe = full_mask(graph.num_labels)
    distances: dict[int, np.ndarray] = {}
    for mask in range(1, universe + 1):
        distances[mask] = _clean(constrained_bfs(graph, landmark, mask))
        result.num_sssp += 1
    if distances_out is not None:
        distances_out.update(distances)

    parts = EntryParts()
    for mask in range(1, universe + 1):
        dist_c = distances[mask]
        best_subset = None
        for sub in iter_one_removed(mask):
            if sub == 0:
                continue
            arr = distances[sub]
            best_subset = arr if best_subset is None else np.minimum(best_subset, arr)
        if best_subset is None:
            minimal = dist_c < BIG
        else:
            minimal = (dist_c < BIG) & (dist_c < best_subset)
        minimal[landmark] = False
        result.num_full_tests += int((dist_c < BIG).sum())
        vertices = np.flatnonzero(minimal)
        parts.add(vertices, dist_c[vertices], mask)
    result.set_entries(parts)
    return result


def traverse_powerset(
    graph: EdgeLabeledGraph,
    landmark: int,
    use_obs1: bool = True,
    use_obs2: bool = True,
    use_obs3: bool = True,
    use_obs4: bool = True,
) -> LandmarkSPMinimal:
    """Algorithm 2: SP-minimal sets with the paper's pruning rules.

    Produces exactly the same entries as :func:`brute_force_sp_minimal`.
    The four keyword flags drive the pruning-ablation benchmark; with all
    four off this degenerates to the brute force (modulo implementation
    details of the test loop).
    """
    result = LandmarkSPMinimal(landmark=landmark)
    universe = full_mask(graph.num_labels)

    # --- Observation 1: candidate label sets ---------------------------
    if use_obs1:
        candidates = generate_candidates(graph, landmark)
    else:
        candidates = list(range(1, universe + 1))
    if not candidates:
        return result

    # --- Observation 3: monochromatic shortest-path labels -------------
    mono: np.ndarray | None = None
    if use_obs3:
        mono = monochromatic_sp_labels(graph, landmark)

    # Label sets are processed in ascending bitmask order, which guarantees
    # every one-removed subset of C is visited (or Obs-1-pruned) before C.
    # Per-mask shortest-path DAG arcs come from the BFS itself and are
    # discarded right after the sweep, keeping memory at O(2^|L| n).
    distances: dict[int, np.ndarray] = {}
    parts = EntryParts()
    flagged = np.zeros(graph.num_vertices, dtype=bool)  # reused across masks

    for mask in candidates:
        if use_obs4:
            raw_dist, tree_edges = constrained_bfs_tree(graph, landmark, mask)
        else:
            raw_dist, tree_edges = constrained_bfs(graph, landmark, mask), None
        dist_c = _clean(raw_dist)
        distances[mask] = dist_c
        result.num_sssp += 1

        size = popcount(mask)
        reachable = dist_c < BIG
        reachable[landmark] = False

        min_dist = size if use_obs2 else 1
        candidate_vertices = reachable & (dist_c >= min_dist)

        if use_obs3 and size >= 2 and mono is not None:
            # A monochromatic SP label inside C makes C ⊋ {l_u} non-minimal.
            candidate_vertices &= (mono & mask) == 0

        if not candidate_vertices.any():
            continue

        # Gather one-removed distance vectors once per label set.
        subset_arrays = []
        for sub in iter_one_removed(mask):
            if sub == 0:
                continue
            arr = distances.get(sub)
            if arr is not None:  # Obs-1-pruned subsets are all-unreachable
                subset_arrays.append(arr)

        def full_test(indices: np.ndarray) -> np.ndarray:
            """Theorem 2 on ``indices``; returns a boolean array."""
            result.num_full_tests += len(indices)
            if len(indices) == 0:
                return np.zeros(0, dtype=bool)
            if not subset_arrays:
                return np.ones(len(indices), dtype=bool)
            best = subset_arrays[0][indices].copy()
            for arr in subset_arrays[1:]:
                np.minimum(best, arr[indices], out=best)
            return dist_c[indices] < best

        if not use_obs4:
            num_candidates = int(candidate_vertices.sum())
            result.num_full_tests += num_candidates
            if not subset_arrays:
                minimal = candidate_vertices
            elif num_candidates * 4 >= graph.num_vertices:
                # Dense candidate set: contiguous array ops beat gathers.
                best = subset_arrays[0]
                for arr in subset_arrays[1:]:
                    best = np.minimum(best, arr)
                minimal = candidate_vertices & (dist_c < best)
            else:
                indices = np.nonzero(candidate_vertices)[0]
                best = subset_arrays[0][indices].copy()
                for arr in subset_arrays[1:]:
                    np.minimum(best, arr[indices], out=best)
                minimal = np.zeros(graph.num_vertices, dtype=bool)
                minimal[indices[dist_c[indices] < best]] = True
            vertices = np.flatnonzero(minimal)
            parts.add(vertices, dist_c[vertices], mask)
            continue

        # --- Observation 4: level sweep over the C-constrained BFS DAG ---
        is_min = np.zeros(graph.num_vertices, dtype=bool)
        cand_idx = np.nonzero(candidate_vertices)[0]
        cand_order = np.argsort(dist_c[cand_idx], kind="stable")
        cand_idx = cand_idx[cand_order]
        cand_dist = dist_c[cand_idx]
        for t in np.unique(cand_dist):
            t = int(t)
            lo_v = np.searchsorted(cand_dist, t, side="left")
            hi_v = np.searchsorted(cand_dist, t, side="right")
            level_vertices = cand_idx[lo_v:hi_v]
            # DAG arcs entering level t, captured during the BFS.
            if t < len(tree_edges):
                seg_src, seg_tgt, _seg_labels = tree_edges[t]
                bad_tgt = seg_tgt[~is_min[seg_src]]
            else:  # pragma: no cover - candidates never exceed max level
                bad_tgt = np.empty(0, dtype=np.int64)
            flagged[bad_tgt] = True

            needs_test = level_vertices[flagged[level_vertices]]
            auto = level_vertices[~flagged[level_vertices]]
            flagged[bad_tgt] = False  # reset the shared buffer
            result.num_auto_minimal += len(auto)
            is_min[auto] = True
            passed = needs_test[full_test(needs_test)]
            is_min[passed] = True

        vertices = np.flatnonzero(is_min)
        parts.add(vertices, dist_c[vertices], mask)

    result.set_entries(parts)
    return result
