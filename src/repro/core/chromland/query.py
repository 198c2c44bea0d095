"""ChromLand query strategies: Proposition 2 and Theorem 5.

Both strategies compute sound *upper bounds* on ``d_C(s, t)``:

* :func:`simple_triangle_distance` — Proposition 2: the best single-landmark
  triangle bound ``min { cd(x,s) + cd(x,t) : c(x) ∈ C }``, in ``O(k)``.
* :func:`auxiliary_graph_distance` — Theorem 5: the shortest path between
  ``s`` and ``t`` on the auxiliary graph ``G_X[s, t, C]`` whose nodes are
  the usable landmarks plus the two query endpoints, with mono-chromatic
  landmark-vertex edges and bi-chromatic landmark-landmark edges.  Theorem 5
  proves this is the *tightest* sound bound derivable from the stored
  distances; it costs ``O(k^2)`` via a dense Dijkstra.

The dense Dijkstra is hand-rolled over numpy arrays: auxiliary graphs have
at most ``k + 2`` nodes, where ``k ≤ a few hundred``, so the ``O(V^2)``
variant with vectorized relaxation beats heap-based implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...graph.traversal import UNREACHABLE
from ...kernels import KernelBackend, resolve_kernel

__all__ = [
    "simple_triangle_distance",
    "auxiliary_graph_distance",
    "AuxiliaryPlan",
    "prepare_auxiliary",
    "auxiliary_distance_from_plan",
]

_INF = np.float64(np.inf)


def simple_triangle_distance(
    mono: np.ndarray,
    usable: np.ndarray,
    source: int,
    target: int,
    mono_source: np.ndarray | None = None,
) -> float:
    """Proposition 2: best single-landmark bound over ``usable`` landmarks.

    ``mono`` is the ``(k, n)`` mono-chromatic distance table with ``-1``
    for unreachable; ``usable`` indexes the landmarks whose color belongs
    to the query label set.  For directed graphs ``mono_source`` carries
    the vertex→landmark distances (reversed-graph table); when ``None``
    the graph is undirected and ``mono`` serves both sides.
    """
    source_table = mono if mono_source is None else mono_source
    ds = source_table[usable, source].astype(np.float64)
    dt = mono[usable, target].astype(np.float64)
    ok = (ds != UNREACHABLE) & (dt != UNREACHABLE)
    if not ok.any():
        return float("inf")
    return float((ds[ok] + dt[ok]).min())


def auxiliary_graph_distance(
    mono: np.ndarray,
    bi: np.ndarray,
    colors: np.ndarray,
    usable: np.ndarray,
    source: int,
    target: int,
    mono_source: np.ndarray | None = None,
) -> float:
    """Theorem 5: shortest s-t path on the induced auxiliary graph.

    Nodes are ``usable`` landmarks plus virtual nodes for ``s`` and ``t``.
    Edge weights:

    * ``s — x``: ``cd(x, s)`` (mono-chromatic), likewise ``t — x``;
    * ``x — y``: ``cd(x, y)`` (bi-chromatic) when ``c(x) ≠ c(y)``.

    Landmark-landmark edges between same-color landmarks do not exist in
    ``G_X`` (their composition is already dominated by the single-landmark
    bound through either one).

    For directed graphs ``mono_source`` is the vertex→landmark table and
    ``bi[i, j]`` is the directed ``x_i → x_j`` distance; the Dijkstra below
    then relaxes directed edges only.
    """
    k = len(usable)
    if k == 0:
        return float("inf")

    # Distance-from-source vector over [landmarks..., target].
    source_table = mono if mono_source is None else mono_source
    ds = source_table[usable, source].astype(np.float64)
    dt = mono[usable, target].astype(np.float64)
    ds[ds == UNREACHABLE] = _INF
    dt[dt == UNREACHABLE] = _INF
    return auxiliary_distance_from_plan(prepare_auxiliary(bi, colors, usable), ds, dt)


@dataclass(frozen=True)
class AuxiliaryPlan:
    """Endpoint-independent part of a Theorem 5 evaluation.

    Everything here depends only on the query's *constraint mask* (through
    ``usable``), not its endpoints, so one plan serves every query in a
    same-mask batch — the amortization the query engine exploits.
    ``weights`` is ``None`` when at most one usable color exists (the
    single-landmark bound is then already optimal and no Dijkstra runs).
    """

    usable: np.ndarray
    weights: np.ndarray | None


def prepare_auxiliary(
    bi: np.ndarray, colors: np.ndarray, usable: np.ndarray
) -> AuxiliaryPlan:
    """Build the dense masked adjacency among ``usable`` landmarks once."""
    usable_colors = colors[usable]
    if len(np.unique(usable_colors)) <= 1:
        return AuxiliaryPlan(usable=usable, weights=None)
    # Dense adjacency among usable landmarks (inf where no edge).
    weights = bi[np.ix_(usable, usable)].astype(np.float64)
    weights[weights == UNREACHABLE] = _INF
    same_color = usable_colors[:, None] == usable_colors[None, :]
    weights[same_color] = _INF
    return AuxiliaryPlan(usable=usable, weights=weights)


def auxiliary_distance_from_plan(
    plan: AuxiliaryPlan,
    ds: np.ndarray,
    dt: np.ndarray,
    kernel: "str | KernelBackend | None" = None,
) -> float:
    """Theorem 5 evaluation given a prepared plan and endpoint legs.

    ``ds`` / ``dt`` are the source/target legs over ``plan.usable`` with
    ``inf`` for unreachable (i.e. already sentinel-converted).  The
    O(k^2) Dijkstra from the virtual source node — initialize landmark
    tentative distances with the s—x edges, repeatedly settle the nearest
    landmark, relax through its bi-chromatic row, keep the running best
    completion through the t—x edges — runs on the selected
    :mod:`repro.kernels` backend (``None`` = ``"auto"``).  Compiled
    backends replay the numpy path's IEEE operation order, so the result
    is bit-identical regardless of ``kernel``.
    """
    k = len(plan.usable)
    if k == 0:
        return float("inf")
    # Fast exits: the best single-landmark bound may already be optimal
    # when only one usable color exists (no bi-chromatic edges help).
    best_single = float((ds + dt).min())
    if plan.weights is None:
        return best_single
    return resolve_kernel(kernel).aux_dijkstra(plan.weights, ds, dt, best_single)
