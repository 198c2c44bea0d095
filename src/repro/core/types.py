"""Shared types for label-constrained distance oracles.

The paper's central object is the *label-constrained point-to-point
shortest-path distance query* (LC-PPSPD): a triple ``⟨s, t, C⟩`` asking for
``d_C(s, t)``, the length of a shortest path from ``s`` to ``t`` that uses
only edges with labels in ``C``.  This module defines the query/answer
dataclasses and the :class:`DistanceOracle` interface every index implements.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from ..graph.labeled_graph import EdgeLabeledGraph

__all__ = [
    "INF",
    "Query",
    "QueryAnswer",
    "DistanceOracle",
    "check_query_domain",
    "integer_fields",
]

#: Infinite distance, the answer to queries over disconnected label subgraphs.
INF = math.inf


@dataclass(frozen=True)
class Query:
    """An LC-PPSPD query ``⟨s, t, C⟩`` with ``C`` as a label bitmask."""

    source: int
    target: int
    label_mask: int

    def __post_init__(self):
        if self.label_mask < 0:
            raise ValueError("label_mask must be non-negative")

    @classmethod
    def of(cls, graph: EdgeLabeledGraph, source: int, target: int, labels: Iterable) -> "Query":
        """Build a query from label names/ids using the graph's universe."""
        return cls(source, target, graph.mask(labels))


@dataclass(frozen=True)
class QueryAnswer:
    """An oracle's answer together with the bounds it was derived from.

    ``estimate`` is the oracle's headline answer (the paper uses the
    triangle-inequality *upper* bound).  ``lower`` is the matching lower
    bound where the oracle can produce one (landmark indexes can);
    oracles that cannot report a bound leave it at 0.
    """

    estimate: float
    lower: float = 0.0
    upper: float = INF

    @property
    def is_unreachable(self) -> bool:
        """True iff the oracle claims no C-constrained path exists."""
        return math.isinf(self.estimate)


def integer_fields(
    source: Any, target: Any, label_mask: Any
) -> tuple[int, int, int]:
    """The query's fields as ``int``; ``ValueError`` for a field that is
    not an integer (a float is rejected, never truncated)."""
    fields = []
    for name, value in (
        ("vertex", source), ("vertex", target), ("label mask", label_mask)
    ):
        try:
            fields.append(operator.index(value))
        except TypeError:
            raise ValueError(
                f"{name} {value!r} is not an integer, so outside the query domain"
            ) from None
    return fields[0], fields[1], fields[2]


def check_query_domain(
    graph: EdgeLabeledGraph, source: int, target: int, label_mask: int
) -> None:
    """Raise ``ValueError`` unless ``⟨source, target, label_mask⟩`` is a
    query on ``graph``.

    The scalar form of the rule :func:`repro.engine.plan.to_triple_array`
    applies to batches: every field is an integer, both vertices lie in
    ``[0, num_vertices)`` and the mask lies in ``[0, 2**num_labels)``.
    """
    source, target, label_mask = integer_fields(source, target, label_mask)
    num_vertices, num_labels = graph.num_vertices, graph.num_labels
    for vertex in (source, target):
        if not 0 <= vertex < num_vertices:
            raise ValueError(
                f"vertex {vertex} outside the vertex range [0, {num_vertices})"
            )
    if label_mask < 0 or label_mask >> num_labels:
        raise ValueError(
            f"label mask {label_mask} outside the "
            f"{num_labels}-label domain [0, 2**{num_labels})"
        )


class DistanceOracle(ABC):
    """Interface implemented by every index and baseline in this package.

    Implementations are constructed from a graph (plus index-specific
    parameters), may run an expensive :meth:`build` step, and then answer
    queries via :meth:`query`.  ``query_answer`` exposes bound details for
    evaluation code.  Both check the query's domain
    (:func:`check_query_domain`) before handing it to the implementation's
    :meth:`_query` / :meth:`_query_answer`, so no oracle sees a vertex or
    mask outside its graph.
    """

    #: Short name used in experiment tables.
    name: str = "oracle"

    def __init__(self, graph: EdgeLabeledGraph):
        self.graph = graph

    def query(self, source: int, target: int, label_mask: int) -> float:
        """Approximate (or exact) ``d_C(source, target)``; ``inf`` if none.

        Raises ``ValueError`` for a query outside the graph's domain.
        """
        check_query_domain(self.graph, source, target, label_mask)
        return self._query(source, target, label_mask)

    def query_answer(self, source: int, target: int, label_mask: int) -> QueryAnswer:
        """Detailed answer (same domain check as :meth:`query`)."""
        check_query_domain(self.graph, source, target, label_mask)
        return self._query_answer(source, target, label_mask)

    @abstractmethod
    def _query(self, source: int, target: int, label_mask: int) -> float:
        """:meth:`query` for an in-domain query."""

    def _query_answer(self, source: int, target: int, label_mask: int) -> QueryAnswer:
        """:meth:`query_answer` for an in-domain query; default wraps
        :meth:`_query` with trivial bounds."""
        estimate = self._query(source, target, label_mask)
        return QueryAnswer(estimate=estimate, lower=0.0, upper=estimate)

    def query_labels(self, source: int, target: int, labels: Iterable) -> float:
        """Convenience overload taking label names/ids instead of a mask."""
        return self.query(source, target, self.graph.mask(labels))

    def batch_query(self, queries: Sequence[Query]) -> list[float]:
        """Answer a batch through the vectorized engine path.

        Delegates to :func:`repro.engine.execute_batch`, which plans the
        batch (grouping by label mask) and runs each group through the
        oracle's executor.  Results are bit-identical to
        :meth:`batch_query_scalar`, the per-call reference path.
        """
        from ..engine import execute_batch  # local: core must not cycle on engine

        return execute_batch(self, queries)

    def batch_query_scalar(self, queries: Sequence[Query]) -> list[float]:
        """Reference path: one scalar :meth:`query` per batch entry."""
        return [self.query(q.source, q.target, q.label_mask) for q in queries]

    # ------------------------------------------------------------------
    # Index accounting — used by the Table 2/3 experiments.
    # ------------------------------------------------------------------
    def index_size_entries(self) -> int:
        """Number of stored distance entries (0 for index-free oracles)."""
        return 0

    def describe(self) -> str:
        """One-line human-readable description for experiment logs."""
        return f"{self.name} on {self.graph!r}"
