"""Batch planning: group a query batch by label mask.

Every specialized executor amortizes *per-mask* work — PowCov's subset
scans, ChromLand's usable-landmark filter and landmark adjacency —
so the first step of batch execution is always the same: partition the
batch into :class:`MaskGroup`\\ s, one per distinct constraint mask.  The
plan records original positions so answers can be scattered back into
submission order.

The partition itself is vectorized (one ``np.unique`` + stable argsort
over the mask column), keeping planning cost negligible next to
execution even for very large batches.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from ..core.types import integer_fields

__all__ = [
    "MaskGroup",
    "ExecutionPlan",
    "QueryLike",
    "plan_batch",
    "as_triple",
    "to_triple_array",
]


class QueryLike(Protocol):
    """Anything with query fields: ``Query``, ``LabeledQuery``, ..."""

    source: int
    target: int
    label_mask: int


def as_triple(query: QueryLike | tuple[int, ...]) -> tuple[int, int, int]:
    """Normalize a ``Query`` / ``LabeledQuery`` / plain triple to a tuple.

    Raises ``ValueError`` for a field that is not an integer.
    """
    if isinstance(query, tuple):
        return integer_fields(query[0], query[1], query[2])
    return integer_fields(query.source, query.target, query.label_mask)


def to_triple_array(
    queries: Sequence[Any] | np.ndarray,
    num_labels: int | None = None,
    num_vertices: int | None = None,
) -> np.ndarray:
    """Normalize a batch to an ``(n, 3)`` int64 array of (s, t, mask) rows.

    Plain tuple/list batches of integers convert in one C-level pass;
    batches of ``Query`` / ``LabeledQuery`` objects, or tuples holding
    anything else, fall back to per-item :func:`as_triple`.  A field that
    is not an integer (a float, or a float-dtype array) raises
    ``ValueError`` rather than being truncated.  With ``num_labels``,
    every mask must lie in the label domain ``[0, 2**num_labels)``; with
    ``num_vertices``, every source and target must lie in
    ``[0, num_vertices)``.  A query outside either domain raises
    ``ValueError`` rather than reaching an oracle.
    """
    try:
        arr = _triples(queries)
    except OverflowError:
        raise ValueError("query field outside the int64 range") from None
    if num_vertices is not None and len(arr):
        ends = arr[:, :2]
        outside = (ends < 0) | (ends >= num_vertices)
        if outside.any():
            raise ValueError(
                f"vertex {int(ends[outside][0])} outside the vertex "
                f"range [0, {num_vertices})"
            )
    if num_labels is not None and len(arr):
        masks = arr[:, 2]
        outside = (masks < 0) | (masks >> min(num_labels, 63) != 0)
        if outside.any():
            raise ValueError(
                f"label mask {int(masks[outside][0])} outside the "
                f"{num_labels}-label domain [0, 2**{num_labels})"
            )
    return arr


def _triples(queries: Sequence[Any] | np.ndarray) -> np.ndarray:
    if isinstance(queries, np.ndarray):
        if queries.ndim != 2 or queries.shape[1] < 3:
            raise ValueError("query array must have shape (n, >=3)")
        if queries.dtype.kind not in "biu":
            raise ValueError(
                f"query array of dtype {queries.dtype} is not integer, so "
                "outside the query domain"
            )
        return np.ascontiguousarray(queries[:, :3], dtype=np.int64)
    queries = list(queries)
    if not queries:
        return np.empty((0, 3), dtype=np.int64)
    if isinstance(queries[0], tuple):
        arr = np.asarray(queries)
        if arr.ndim == 2 and arr.dtype.kind in "biu":
            return arr[:, :3].astype(np.int64, copy=False)
    return np.asarray([as_triple(q) for q in queries], dtype=np.int64)


@dataclass(frozen=True)
class MaskGroup:
    """All queries of one batch sharing a constraint mask."""

    label_mask: int
    #: positions of the group's queries inside the submitted batch.
    positions: np.ndarray
    sources: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ExecutionPlan:
    """A batch partitioned into per-mask groups (mask-ascending order)."""

    num_queries: int
    groups: tuple[MaskGroup, ...]

    @property
    def num_masks(self) -> int:
        return len(self.groups)


def plan_batch(queries: Sequence[Any] | np.ndarray) -> ExecutionPlan:
    """Partition ``queries`` (Query objects, triples, or an (n, 3) array)."""
    arr = to_triple_array(queries)
    n = len(arr)
    if n == 0:
        return ExecutionPlan(num_queries=0, groups=())
    unique_masks, inverse = np.unique(arr[:, 2], return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(len(unique_masks)))
    ends = np.append(starts[1:], n)
    groups: list[MaskGroup] = []
    for i, mask in enumerate(unique_masks.tolist()):
        positions = order[starts[i]:ends[i]]
        groups.append(
            MaskGroup(label_mask=int(mask), positions=positions,
                      sources=arr[positions, 0], targets=arr[positions, 1])
        )
    return ExecutionPlan(num_queries=n, groups=tuple(groups))
