"""Per-oracle batch executors: the vectorized counterparts of ``query``.

An executor answers one :class:`~repro.engine.plan.MaskGroup` at a time.
The contract, asserted by the engine property tests, is **bit-identical
output**: for every oracle and every query, the executor's float equals
``oracle.query(s, t, mask)`` exactly (including ``inf``).  Executors are
therefore *reorganizations* of the scalar arithmetic — same lookups, same
additions, same minima — with the per-mask work hoisted out of the per-
query loop:

* :class:`PowCovExecutor` resolves the Theorem 1 reconstruction for the
  endpoints of a mask group not yet resolved under that mask in one
  subset-filter sweep over the index's sorted table; per-vertex landmark
  rows are cached on the mask plan so repeated-mask streams never re-scan
  a vertex's entries.
* :class:`ChromLandExecutor` computes the usable-landmark filter and (for
  the Theorem 5 strategy) the masked auxiliary adjacency once per mask;
  the mask's first ``k_usable`` queries run the per-query Dijkstra, then
  the mask is closed once and every later group is one min-plus over
  landmark pairs.  The Proposition 2 strategy (and a mask with one usable
  color) takes the single-landmark minimum across the group.
* :class:`NaiveExecutor` stacks the per-landmark exact distance vectors of
  the group's mask into one ``(k, n)`` matrix and answers the group with
  two gathers and a min-reduction.
* :class:`ScalarLoopExecutor` is the trivial adapter: a plain loop over
  ``oracle.query``.  Baselines (bidirectional BFS, the Rice–Tsotras CH)
  and any unknown oracle run through it, so engine-vs-engine comparisons
  stay apples-to-apples even when one side has no batchable structure.

``executor_for`` picks the executor by oracle type.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar, cast

import numpy as np

from ..core.chromland import ChromLandIndex
from ..core.chromland.query import (
    AuxiliaryPlan,
    auxiliary_distance_from_plan,
    closure_distances,
    landmark_closure,
    prepare_auxiliary,
)
from ..core.naive import NaivePowersetIndex
from ..core.powcov import PowCovIndex
from ..core.types import INF, DistanceOracle
from ..graph.traversal import UNREACHABLE
from ..kernels import resolve_kernel
from .plan import MaskGroup

__all__ = [
    "OracleExecutor",
    "ScalarLoopExecutor",
    "PowCovExecutor",
    "ChromLandExecutor",
    "NaiveExecutor",
    "executor_for",
]


#: Oracle type an executor is specialized for.
OracleT = TypeVar("OracleT", bound=DistanceOracle)
#: Per-mask plan type produced by ``prepare_mask`` / consumed by
#: ``execute_group`` — parametrized so overrides stay LSP-compatible.
PlanT = TypeVar("PlanT")


class OracleExecutor(Generic[OracleT, PlanT]):
    """Base class: mask-plan preparation + group execution."""

    def __init__(self, oracle: OracleT) -> None:
        self.oracle: OracleT = oracle

    def prepare_mask(self, label_mask: int) -> PlanT:
        """Build the reusable per-mask state (cached by the session)."""
        # Executors with no per-mask state reuse the mask itself as plan.
        return cast("PlanT", label_mask)

    def execute_group(self, mask_plan: PlanT, group: MaskGroup) -> np.ndarray:
        """Answer every query of ``group`` (float64, ``inf`` = unreachable)."""
        raise NotImplementedError


class ScalarLoopExecutor(OracleExecutor[DistanceOracle, int]):
    """The reference path as an executor: one ``oracle.query`` per query."""

    def execute_group(self, mask_plan: int, group: MaskGroup) -> np.ndarray:
        query = self.oracle.query
        mask = group.label_mask
        out = np.empty(len(group), dtype=np.float64)
        for i, (s, t) in enumerate(zip(group.sources, group.targets)):
            out[i] = query(int(s), int(t), mask)
        return out


# ----------------------------------------------------------------------
# PowCov
# ----------------------------------------------------------------------
class _RowCache:
    """Resolved per-vertex landmark rows for one (mask, table) pair.

    Rows live in one doubling-capacity matrix so group assembly is a
    single fancy-index gather.  ``row_of`` is an int32 array over the
    graph's vertices giving each vertex's matrix row, ``-1`` while the
    vertex is not resolved, and turns the vertex-to-row lookup into one
    more fancy index.  It costs ``4n`` bytes per cache however few
    vertices a mask resolves (two caches per plan on directed graphs, up
    to ``PLAN_CACHE_SIZE`` plans, again after every ``rebind``); only
    once every vertex is resolved is that under ``1/(2k)`` of the rows.
    """

    __slots__ = ("row_of", "data", "size")

    def __init__(self, n: int, k: int) -> None:
        self.row_of = np.full(n, -1, dtype=np.int32)
        self.data = np.empty((16, k), dtype=np.float64)
        self.size = 0

    def append(self, table: np.ndarray, vertices: np.ndarray) -> None:
        need = self.size + len(table)
        if need > len(self.data):
            grown = np.empty((max(need, 2 * len(self.data)), self.data.shape[1]))
            grown[: self.size] = self.data[: self.size]
            self.data = grown
        self.data[self.size:need] = table
        self.row_of[vertices] = np.arange(self.size, need, dtype=np.int32)
        self.size = need


class _PowCovMaskPlan:
    """Per-mask state: resolved per-vertex landmark rows, grown lazily."""

    __slots__ = ("label_mask", "rows", "rows_reverse")

    def __init__(self, label_mask: int, n: int, k: int, directed: bool) -> None:
        self.label_mask = label_mask
        self.rows = _RowCache(n, k)
        self.rows_reverse = _RowCache(n, k) if directed else None


class PowCovExecutor(OracleExecutor[PowCovIndex, _PowCovMaskPlan]):
    """Vectorized Theorem 1 + triangle inequality over mask groups."""

    def __init__(self, oracle: PowCovIndex) -> None:
        super().__init__(oracle)
        oracle._require_built()  # noqa: SLF001 - engine is a friend module
        self._directed = oracle.graph.directed

    def prepare_mask(self, label_mask: int) -> _PowCovMaskPlan:
        return _PowCovMaskPlan(
            label_mask,
            self.oracle.graph.num_vertices,
            len(self.oracle.landmarks),
            self._directed,
        )

    def _gather(
        self,
        label_mask: int,
        vertices: np.ndarray,
        direction: str,
        cache: _RowCache,
    ) -> np.ndarray:
        """Landmark rows for ``vertices``, resolving any new ones first."""
        rows = cache.row_of[vertices]
        unresolved = rows < 0
        if unresolved.any():
            missing = np.unique(vertices[unresolved])
            cache.append(
                self.oracle.landmark_rows(missing, label_mask, direction), missing
            )
            rows = cache.row_of[vertices]
        return cache.data[rows]

    def execute_group(
        self, mask_plan: _PowCovMaskPlan, group: MaskGroup
    ) -> np.ndarray:
        out = np.empty(len(group), dtype=np.float64)
        same = group.sources == group.targets
        out[same] = 0.0
        live = ~same
        if mask_plan.label_mask == 0:
            out[live] = INF
            return out
        if not live.any():
            return out
        sources = group.sources[live]
        targets = group.targets[live]
        mask = mask_plan.label_mask
        if mask_plan.rows_reverse is not None:
            # Directed estimate: min_x d_C(s → x) + d_C(x → t); the s-leg
            # comes from the reversed-graph table.
            ds = self._gather(mask, sources, "to-landmark", mask_plan.rows_reverse)
            dt = self._gather(mask, targets, "from-landmark", mask_plan.rows)
        else:
            matrix = self._gather(
                mask, np.concatenate([sources, targets]), "from-landmark",
                mask_plan.rows,
            )
            ds = matrix[: len(sources)]
            dt = matrix[len(sources):]
        sums = ds + dt
        if self.oracle.estimator == "median":
            estimates = np.empty(len(sums), dtype=np.float64)
            for i, row in enumerate(sums):
                finite = row[np.isfinite(row)]
                if len(finite) == 0:
                    estimates[i] = INF
                else:
                    finite.sort()
                    estimates[i] = finite[len(finite) // 2]
        else:
            estimates = sums.min(axis=1)
        out[live] = estimates
        return out


# ----------------------------------------------------------------------
# ChromLand
# ----------------------------------------------------------------------
class _ChromLandMaskPlan:
    __slots__ = ("label_mask", "usable", "auxiliary", "closure", "dijkstra_queries")

    def __init__(self, label_mask: int, usable: np.ndarray,
                 auxiliary: AuxiliaryPlan | None) -> None:
        self.label_mask = label_mask
        self.usable = usable
        #: prepared Theorem 5 plan (``None`` in "simple" query mode and
        #: once ``closure`` replaces it).
        self.auxiliary = auxiliary
        #: Closure of ``auxiliary.weights``, built once enough queries have
        #: asked this mask (``None`` until then, and for good when at most
        #: one usable color exists: the single-landmark bound is then
        #: already optimal).
        self.closure: np.ndarray | None = None
        #: Queries of this mask answered by the per-query Dijkstra so far.
        self.dijkstra_queries = 0


class ChromLandExecutor(OracleExecutor[ChromLandIndex, _ChromLandMaskPlan]):
    """Shared usable-filter + landmark adjacency (then closure) per mask.

    A Theorem 5 mask pays for its landmark closure (``O(k^3)``) once its
    queries would otherwise have run about ``k_usable`` Dijkstras
    (``O(k^2)`` each, plus a kernel call): until then each query runs the
    kernel Dijkstra, from then on every group is one min-plus.  Large
    groups and warm sessions close the mask at once or soon; a one-shot
    batch with few queries per mask and many landmarks never pays for a
    closure it could not amortize.
    """

    def __init__(self, oracle: ChromLandIndex) -> None:
        super().__init__(oracle)
        oracle._require_built()  # noqa: SLF001 - engine is a friend module
        if oracle.query_mode == "auxiliary":
            # The min-plus sums paths in another order than the Dijkstra;
            # only integer distances make that order moot.
            for table in (oracle.bi, oracle.mono, oracle.mono_in):
                if table is not None and not np.issubdtype(table.dtype, np.integer):
                    raise TypeError(
                        "ChromLand landmark closure needs integer "
                        f"distance tables, got {table.dtype}"
                    )

    def prepare_mask(self, label_mask: int) -> _ChromLandMaskPlan:
        oracle = self.oracle
        usable = np.nonzero((oracle._color_bits & label_mask) != 0)[0]  # noqa: SLF001
        auxiliary = None
        if len(usable) and oracle.query_mode == "auxiliary":
            auxiliary = prepare_auxiliary(oracle.bi, oracle.colors, usable)
        return _ChromLandMaskPlan(label_mask, usable, auxiliary)

    def execute_group(
        self, mask_plan: _ChromLandMaskPlan, group: MaskGroup
    ) -> np.ndarray:
        out = np.empty(len(group), dtype=np.float64)
        same = group.sources == group.targets
        out[same] = 0.0
        live = ~same
        if mask_plan.label_mask == 0 or len(mask_plan.usable) == 0:
            out[live] = INF
            return out
        if not live.any():
            return out
        oracle = self.oracle
        sources = group.sources[live]
        targets = group.targets[live]
        # Plain ndarray views: a store-opened index holds memmaps, whose
        # Python-level __getitem__ would run on every gather.
        mono = np.asarray(oracle.mono)
        source_table = mono if oracle.mono_in is None else np.asarray(oracle.mono_in)
        # (k_usable, g) legs for the whole group, sentinel-converted once.
        rows = mask_plan.usable[:, None]
        ds = source_table[rows, sources].astype(np.float64)
        dt = mono[rows, targets].astype(np.float64)
        ds[ds == UNREACHABLE] = INF
        dt[dt == UNREACHABLE] = INF
        auxiliary = mask_plan.auxiliary
        if auxiliary is not None and auxiliary.weights is not None:
            # Dijkstra per query until the mask has been asked k_usable
            # queries, then the closure (see the class docstring).
            asked = mask_plan.dijkstra_queries + ds.shape[1]
            if asked < len(auxiliary.usable):
                mask_plan.dijkstra_queries = asked
                kernel = resolve_kernel(None)  # loaded on first need
                out[live] = [
                    auxiliary_distance_from_plan(
                        auxiliary, ds[:, i], dt[:, i], kernel=kernel
                    )
                    for i in range(ds.shape[1])
                ]
                return out
            mask_plan.closure = landmark_closure(auxiliary.weights)
            mask_plan.auxiliary = None
        if mask_plan.closure is None:
            out[live] = (ds + dt).min(axis=0)
        else:
            out[live] = closure_distances(mask_plan.closure, ds, dt)
        return out


# ----------------------------------------------------------------------
# Naive powerset
# ----------------------------------------------------------------------
class NaiveExecutor(OracleExecutor[NaivePowersetIndex, "np.ndarray | None"]):
    """Stacked exact-distance matrix per mask; two gathers per group."""

    def __init__(self, oracle: NaivePowersetIndex) -> None:
        super().__init__(oracle)
        oracle._require_built()  # noqa: SLF001 - engine is a friend module

    def prepare_mask(self, label_mask: int) -> np.ndarray | None:
        if label_mask == 0:
            return None
        tables = self.oracle._distances  # noqa: SLF001 - engine is a friend
        return np.stack([per_mask[label_mask] for per_mask in tables])

    def execute_group(self, mask_plan: np.ndarray | None, group: MaskGroup) -> np.ndarray:
        out = np.empty(len(group), dtype=np.float64)
        same = group.sources == group.targets
        out[same] = 0.0
        live = ~same
        if mask_plan is None:  # the empty constraint set
            out[live] = INF
            return out
        if not live.any():
            return out
        ds = mask_plan[:, group.sources[live]].astype(np.float64)
        dt = mask_plan[:, group.targets[live]].astype(np.float64)
        ds[ds == UNREACHABLE] = INF
        dt[dt == UNREACHABLE] = INF
        out[live] = (ds + dt).min(axis=0)
        return out


def executor_for(oracle: DistanceOracle) -> OracleExecutor[Any, Any]:
    """Pick the batch executor for ``oracle`` (scalar loop as fallback).

    Every executor reads the oracle's tables live, so constructing one is
    cheap and a repaired index needs no invalidation.
    """
    if isinstance(oracle, PowCovIndex):
        return PowCovExecutor(oracle)
    if isinstance(oracle, ChromLandIndex):
        return ChromLandExecutor(oracle)
    if isinstance(oracle, NaivePowersetIndex):
        return NaiveExecutor(oracle)
    return ScalarLoopExecutor(oracle)
