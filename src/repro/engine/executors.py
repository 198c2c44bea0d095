"""Per-oracle batch executors: the vectorized counterparts of ``query``.

An executor answers one :class:`~repro.engine.plan.MaskGroup` at a time.
The contract, asserted by the engine property tests, is **bit-identical
output**: for every oracle and every query, the executor's float equals
``oracle.query(s, t, mask)`` exactly (including ``inf``).  Executors are
therefore *reorganizations* of the scalar arithmetic — same lookups, same
additions, same minima — with the per-mask work hoisted out of the per-
query loop:

* :class:`PowCovExecutor` resolves the Theorem 1 reconstruction for *all*
  unique endpoints of a mask group in one subset-filter sweep over the
  index's sorted table; per-vertex landmark rows are cached on the mask
  plan so repeated-mask streams never re-scan a vertex's entries.
* :class:`ChromLandExecutor` computes the usable-landmark filter and (for
  the Theorem 5 strategy) the masked auxiliary adjacency once per mask,
  then evaluates every pair in the group against the shared plan; the
  Proposition 2 strategy vectorizes across the whole group.
* :class:`NaiveExecutor` stacks the per-landmark exact distance vectors of
  the group's mask into one ``(k, n)`` matrix and answers the group with
  two gathers and a min-reduction.
* :class:`ScalarLoopExecutor` is the trivial adapter: a plain loop over
  ``oracle.query``.  Baselines (bidirectional BFS, the Rice–Tsotras CH)
  and any unknown oracle run through it, so engine-vs-engine comparisons
  stay apples-to-apples even when one side has no batchable structure.

``executor_for`` picks the executor; oracles can override the choice by
defining ``make_batch_executor()``.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar, cast

import numpy as np

from ..core.chromland import ChromLandIndex
from ..core.chromland.query import (
    AuxiliaryPlan,
    auxiliary_distance_from_plan,
    prepare_auxiliary,
)
from ..core.naive import NaivePowersetIndex
from ..core.powcov import PowCovIndex
from ..core.types import INF, DistanceOracle
from ..graph.traversal import UNREACHABLE
from ..kernels import KernelBackend, resolve_kernel
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
        #: Compiled-kernel backend for the executor's hot loops, resolved
        #: once here (``"auto"``) so the hot path never re-probes.
        self.kernel: KernelBackend = resolve_kernel(None)

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
    single fancy-index gather; ``row_of`` maps vertex id to matrix row.
    """

    __slots__ = ("row_of", "data", "size")

    def __init__(self, k: int) -> None:
        self.row_of: dict[int, int] = {}
        self.data = np.empty((16, k), dtype=np.float64)
        self.size = 0

    def append(self, table: np.ndarray, vertices: list[int]) -> None:
        need = self.size + len(table)
        if need > len(self.data):
            grown = np.empty((max(need, 2 * len(self.data)), self.data.shape[1]))
            grown[: self.size] = self.data[: self.size]
            self.data = grown
        self.data[self.size:need] = table
        for offset, u in enumerate(vertices):
            self.row_of[u] = self.size + offset
        self.size = need


class _PowCovMaskPlan:
    """Per-mask state: resolved per-vertex landmark rows, grown lazily."""

    __slots__ = ("label_mask", "rows", "rows_reverse")

    def __init__(self, label_mask: int, k: int, directed: bool) -> None:
        self.label_mask = label_mask
        self.rows = _RowCache(k)
        self.rows_reverse = _RowCache(k) if directed else None


class PowCovExecutor(OracleExecutor[PowCovIndex, _PowCovMaskPlan]):
    """Vectorized Theorem 1 + triangle inequality over mask groups."""

    def __init__(self, oracle: PowCovIndex) -> None:
        super().__init__(oracle)
        oracle._require_built()  # noqa: SLF001 - engine is a friend module
        self._directed = oracle.graph.directed

    def prepare_mask(self, label_mask: int) -> _PowCovMaskPlan:
        return _PowCovMaskPlan(
            label_mask, len(self.oracle.landmarks), self._directed
        )

    def _gather(
        self,
        label_mask: int,
        unique_vertices: np.ndarray,
        direction: str,
        cache: _RowCache,
    ) -> np.ndarray:
        """Landmark rows for ``unique_vertices``, resolving any new ones."""
        row_of = cache.row_of
        missing = [u for u in unique_vertices.tolist() if u not in row_of]
        if missing:
            table = self.oracle.landmark_rows(
                np.asarray(missing, dtype=np.int64), label_mask, direction
            )
            cache.append(table, missing)
        idx = np.fromiter(
            (row_of[u] for u in unique_vertices.tolist()),
            dtype=np.int64, count=len(unique_vertices),
        )
        return cache.data[idx]

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
            su, s_inv = np.unique(sources, return_inverse=True)
            tu, t_inv = np.unique(targets, return_inverse=True)
            ds = self._gather(
                mask, su, "to-landmark", mask_plan.rows_reverse
            )[s_inv]
            dt = self._gather(mask, tu, "from-landmark", mask_plan.rows)[t_inv]
        else:
            endpoints, inverse = np.unique(
                np.concatenate([sources, targets]), return_inverse=True
            )
            matrix = self._gather(mask, endpoints, "from-landmark", mask_plan.rows)
            ds = matrix[inverse[: len(sources)]]
            dt = matrix[inverse[len(sources):]]
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
    __slots__ = ("label_mask", "usable", "auxiliary")

    def __init__(self, label_mask: int, usable: np.ndarray,
                 auxiliary: AuxiliaryPlan | None) -> None:
        self.label_mask = label_mask
        self.usable = usable
        #: prepared Theorem 5 plan (``None`` in "simple" query mode).
        self.auxiliary = auxiliary


class ChromLandExecutor(OracleExecutor[ChromLandIndex, _ChromLandMaskPlan]):
    """Shared usable-filter + auxiliary adjacency per mask group."""

    def __init__(self, oracle: ChromLandIndex) -> None:
        super().__init__(oracle)
        oracle._require_built()  # noqa: SLF001 - engine is a friend module

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
        source_table = oracle.mono if oracle.mono_in is None else oracle.mono_in
        # (k_usable, g) legs for the whole group, sentinel-converted once.
        ds = source_table[np.ix_(mask_plan.usable, sources)].astype(np.float64)
        dt = oracle.mono[np.ix_(mask_plan.usable, targets)].astype(np.float64)
        ds[ds == UNREACHABLE] = INF
        dt[dt == UNREACHABLE] = INF
        if oracle.query_mode == "simple":
            out[live] = (ds + dt).min(axis=0)
        else:
            estimates = np.empty(ds.shape[1], dtype=np.float64)
            for i in range(ds.shape[1]):
                estimates[i] = auxiliary_distance_from_plan(
                    mask_plan.auxiliary, ds[:, i], dt[:, i], kernel=self.kernel
                )
            out[live] = estimates
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
    maker = getattr(oracle, "make_batch_executor", None)
    if maker is not None:
        return maker()
    if isinstance(oracle, PowCovIndex):
        return PowCovExecutor(oracle)
    if isinstance(oracle, ChromLandIndex):
        return ChromLandExecutor(oracle)
    if isinstance(oracle, NaivePowersetIndex):
        return NaiveExecutor(oracle)
    return ScalarLoopExecutor(oracle)
