"""Lightweight interprocedural call summaries for ``repro.*`` functions.

The flow engine (:mod:`repro.analysis.flow`) is intraprocedural: it never
descends into a callee.  What it knows about calls comes from this module,
through two layers:

* a **built-in table** for the package's load-bearing primitives — the
  :mod:`repro.graph.labelsets` mask constructors, the constrained-BFS
  family and the mapped-table probes.  These pin down return
  dtypes/domains.
* **derived summaries** scanned from the analyzed files' own ``def``
  headers: parameter *names* (so positional arguments can be matched to
  the domain a name implies — ``mask`` expects a label mask, ``source``
  a vertex id) and return-annotation dtype tokens (``NDArray[np.int32]``
  seeds an ``int32`` array abstraction).

Derived summaries are keyed by bare function name; a name bound to
conflicting signatures across modules keeps only the pieces the
signatures agree on (conflicting parameter lists drop positional
checking rather than guess).  The combined table is content-hashed
(:func:`summaries_digest`) so the per-file result cache invalidates when
any signature anywhere changes.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from collections.abc import Iterable

from .domains import (
    AbstractValue,
    Domain,
    DType,
    dtype_set,
    parse_dtype_token,
)

__all__ = [
    "Summary",
    "BUILTIN_SUMMARIES",
    "classify_param_name",
    "collect_summaries",
    "summaries_digest",
    "MASK_PARAM_NAMES",
    "VERTEX_PARAM_NAMES",
    "DIST_PARAM_NAMES",
    "LANDMARK_PARAM_NAMES",
]


@dataclass(frozen=True)
class Summary:
    """What the engine assumes about calling one function.

    ``params`` holds the parameter names in positional order (``"self"``
    excluded) — the engine classifies each name via
    :func:`classify_param_name` to get the expected argument domain.  An
    empty tuple disables positional checking (keyword arguments are always
    checkable by their own name).
    """

    params: tuple[str, ...] = ()
    returns: AbstractValue = AbstractValue()


# ---------------------------------------------------------------------------
# Parameter-name -> expected domain classification
# ---------------------------------------------------------------------------

MASK_PARAM_NAMES = frozenset(
    {
        "mask",
        "masks",
        "label_mask",
        "query_mask",
        "constraint_mask",
        "sub",
        "sup",
    }
)
VERTEX_PARAM_NAMES = frozenset(
    {
        "vertex",
        "vertices",
        "source",
        "sources",
        "target",
        "targets",
        "root",
        "landmark",
        "landmarks",
    }
)
DIST_PARAM_NAMES = frozenset({"dist", "dists", "distance", "distances"})
LANDMARK_PARAM_NAMES = frozenset({"landmark_index", "landmark_indices"})


def classify_param_name(name: str) -> Domain | None:
    """The domain a parameter *name* implies, or ``None`` for no opinion."""
    if name in MASK_PARAM_NAMES:
        return Domain.MASK
    if name in VERTEX_PARAM_NAMES:
        return Domain.VERTEX
    if name in DIST_PARAM_NAMES:
        return Domain.DIST
    if name in LANDMARK_PARAM_NAMES:
        return Domain.LANDMARK
    return None


# ---------------------------------------------------------------------------
# Built-in summaries for the package's primitives
# ---------------------------------------------------------------------------

_MASK_SCALAR = AbstractValue(
    dtypes=dtype_set(DType.PYINT), kind="scalar", domain=Domain.MASK
)
_MASK_I64_ARRAY = AbstractValue(
    dtypes=dtype_set(DType.INT64), kind="array", domain=Domain.MASK
)
_MASK_ITER = AbstractValue(kind="iter", elem=_MASK_SCALAR)
_DIST_I32_ARRAY = AbstractValue(
    dtypes=dtype_set(DType.INT32), kind="array", domain=Domain.DIST
)
_DIST_F64_SCALAR = AbstractValue(
    dtypes=dtype_set(DType.PYFLOAT, DType.FLOAT64), kind="scalar", domain=Domain.DIST
)
_DIST_F64_ARRAY = AbstractValue(
    dtypes=dtype_set(DType.FLOAT64), kind="array", domain=Domain.DIST
)
_VERTEX_ARRAY = AbstractValue(kind="array", domain=Domain.VERTEX)
_PYINT = AbstractValue(dtypes=dtype_set(DType.PYINT), kind="scalar")

#: Keyed by bare callable name — matched against both ``name(...)`` calls
#: and ``obj.name(...)`` method calls.  Built-ins win over derived entries.
BUILTIN_SUMMARIES: dict[str, Summary] = {
    # -- labelsets: mask constructors and set algebra -------------------
    "label_bit": Summary(("label",), _MASK_SCALAR),
    "mask_from_labels": Summary(("labels",), _MASK_SCALAR),
    "full_mask": Summary(("num_labels",), _MASK_SCALAR),
    "np_label_bits": Summary(("labels",), _MASK_I64_ARRAY),
    "popcount": Summary(("mask",), _PYINT),
    "is_subset": Summary(("sub", "sup"), AbstractValue(kind="scalar")),
    "is_proper_subset": Summary(("sub", "sup"), AbstractValue(kind="scalar")),
    "labels_from_mask": Summary(("mask",), AbstractValue(kind="iter", elem=_PYINT)),
    "iter_submasks": Summary(("mask",), _MASK_ITER),
    "iter_one_removed": Summary(("mask",), _MASK_ITER),
    "iter_one_added": Summary(("mask", "num_labels"), _MASK_ITER),
    "iter_masks_of_size": Summary(("size", "num_labels"), _MASK_ITER),
    "iter_all_masks": Summary(("num_labels", "include_empty"), _MASK_ITER),
    "singleton_masks": Summary(("num_labels",), _MASK_ITER),
    "mask_to_str": Summary(("mask", "names"), AbstractValue(kind="scalar")),
    # -- traversal / batched kernels: distance producers ----------------
    "constrained_bfs": Summary(("graph", "source", "mask", "allowed"), _DIST_I32_ARRAY),
    "bfs": Summary(("graph", "source"), _DIST_I32_ARRAY),
    "batched_constrained_bfs": Summary(
        ("graph", "sources", "mask", "masks", "max_level"), _DIST_I32_ARRAY
    ),
    "constrained_distance": Summary(
        ("graph", "source", "target", "mask"), _DIST_F64_SCALAR
    ),
    "bidirectional_constrained_bfs": Summary(
        ("graph", "source", "target", "mask"), _DIST_F64_SCALAR
    ),
    "exact_workload_distances": Summary(
        ("graph", "queries", "batch_size"), _DIST_F64_ARRAY
    ),
    "label_filter": Summary(
        ("graph", "mask"), AbstractValue(dtypes=dtype_set(DType.BOOL), kind="array")
    ),
    "landmark_distance": Summary(
        ("landmark_index", "vertex", "label_mask", "direction"), _DIST_F64_SCALAR
    ),
    "lookup_one": Summary(
        ("landmark_index", "vertex", "label_mask"), _DIST_F64_SCALAR
    ),
    "lookup_many": Summary(("vertices", "label_mask"), _DIST_F64_ARRAY),
    "largest_component_vertices": Summary(("graph", "mask"), _VERTEX_ARRAY),
    # -- mapped store tables ---------------------------------------------
    "PowCovTable": Summary(
        ("key", "dist", "mask", "num_landmarks", "num_vertices"),
        AbstractValue(tag="mapped-table"),
    ),
}


# ---------------------------------------------------------------------------
# Derived summaries from the analyzed package's own signatures
# ---------------------------------------------------------------------------


def _annotation_value(annotation: ast.expr | None) -> AbstractValue:
    """Abstract value a return annotation implies (dtype tokens only)."""
    if annotation is None:
        return AbstractValue()
    text = ast.dump(annotation)
    for token in ("uint64", "int64", "int32", "int16", "uint8", "float64", "float32"):
        if f"'{token}'" in text:
            dt = parse_dtype_token(token)
            if dt is not None:
                kind = "array" if "NDArray" in text or "ndarray" in text else "scalar"
                return AbstractValue(dtypes=dtype_set(dt), kind=kind)
    if isinstance(annotation, ast.Name):
        if annotation.id == "int":
            return AbstractValue(dtypes=dtype_set(DType.PYINT), kind="scalar")
        if annotation.id == "float":
            return AbstractValue(dtypes=dtype_set(DType.PYFLOAT), kind="scalar")
        if annotation.id == "bool":
            return AbstractValue(dtypes=dtype_set(DType.BOOL), kind="scalar")
    return AbstractValue()


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def collect_summaries(trees: Iterable[ast.Module]) -> dict[str, Summary]:
    """Derive per-function summaries from every ``def`` in ``trees``.

    Built-in entries always win.  A bare name defined with *different*
    parameter lists in different modules keeps an empty ``params`` tuple
    (no positional checking) — keyword arguments remain checkable by name.
    """
    derived: dict[str, Summary] = {}
    conflicted: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name in BUILTIN_SUMMARIES:
                continue
            params = _function_params(node)
            returns = _annotation_value(node.returns)
            existing = derived.get(name)
            if existing is None and name not in conflicted:
                derived[name] = Summary(params, returns)
            elif existing is not None and existing.params != params:
                conflicted.add(name)
                derived[name] = Summary((), existing.returns.join(returns))
            elif existing is not None:
                derived[name] = Summary(params, existing.returns.join(returns))
    combined = dict(derived)
    combined.update(BUILTIN_SUMMARIES)
    return combined


def summaries_digest(summaries: dict[str, Summary]) -> str:
    """Stable content hash of a summary table (cache-invalidation key)."""
    hasher = hashlib.sha256()
    for name in sorted(summaries):
        summary = summaries[name]
        hasher.update(name.encode())
        hasher.update(repr(summary.params).encode())
        hasher.update(repr(summary.returns).encode())
    return hasher.hexdigest()
