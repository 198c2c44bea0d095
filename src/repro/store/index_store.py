"""Reading and writing graphs/indexes in the mmap-able store format.

The writers canonicalize an in-memory object into the section layout of
:mod:`repro.store.format`; the readers hand the mapped sections straight to
the serving structures:

* ``kind="graph"`` — the CSR arrays in their native dtypes (``indptr``
  int64, ``neighbors`` int32, ``edge_labels`` int16), so
  :class:`~repro.graph.labeled_graph.EdgeLabeledGraph` adopts the memmap
  views without copying.
* ``kind="powcov"`` — the index's
  :class:`~repro.core.powcov.table.PowCovTable` columns verbatim (``key``
  sorted, distance then mask within a key).  :func:`open_index` wraps
  the mapped columns in a plain
  :class:`~repro.core.powcov.PowCovIndex`, which serves, repairs and
  saves like a built one.
* ``kind="chromland"`` — the ``mono`` / ``bi`` (and directed ``mono_in``)
  matrices verbatim; a regular :class:`ChromLandIndex` serves directly off
  the mapped matrices.

Every file records the owning graph's fingerprint; the readers verify it
against the supplied graph and the loaded index carries it as
``stored_fingerprint`` for the engine session's open-time re-check.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..core.chromland import ChromLandIndex
from ..core.powcov import PowCovIndex
from ..core.powcov.table import PowCovTable
from ..graph.fingerprint import graph_fingerprint
from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import LabelUniverse
from .format import FormatError, Store, write_store

__all__ = [
    "save_index",
    "open_index",
    "save_graph",
    "open_graph",
]

def _require_meta(store: Store, *names: str) -> list[Any]:
    values = []
    for name in names:
        if name not in store.meta:
            raise FormatError(f"{store.path}: header missing {name!r}")
        values.append(store.meta[name])
    return values


def _check_fingerprint(store: Store, graph: EdgeLabeledGraph) -> int:
    (stored,) = _require_meta(store, "fingerprint")
    if int(stored) != int(graph_fingerprint(graph)):
        raise FormatError("index file was built for a different graph")
    return int(stored)


# ----------------------------------------------------------------------
# Indexes
# ----------------------------------------------------------------------
def save_index(
    index: PowCovIndex | ChromLandIndex, path: str | os.PathLike[str]
) -> None:
    """Write a built index as a store file (see the module docstring)."""
    fingerprint = int(graph_fingerprint(index.graph))
    if isinstance(index, PowCovIndex):
        if not index._built:  # noqa: SLF001 - store is a friend module
            raise ValueError("build the index before saving it")
        meta = {
            "fingerprint": fingerprint,
            "estimator": index.estimator,
            "directed": index.graph.directed,
            "num_vertices": index.graph.num_vertices,
        }
        sections = [("landmarks", np.asarray(index.landmarks, dtype=np.int64))]
        for prefix, table in zip(("fwd", "rev"), index.tables()):
            sections.append((f"{prefix}_key", table.key))
            sections.append((f"{prefix}_dist", table.dist))
            sections.append((f"{prefix}_mask", table.mask))
        write_store(path, "powcov", meta, sections)
        return
    if isinstance(index, ChromLandIndex):
        if index.mono is None:
            raise ValueError("build the index before saving it")
        meta = {
            "fingerprint": fingerprint,
            "query_mode": index.query_mode,
            "directed": index.graph.directed,
        }
        sections = [
            ("landmarks", np.asarray(index.landmarks, dtype=np.int64)),
            ("colors", np.asarray(index.colors, dtype=np.int64)),
            ("mono", index.mono),
            ("bi", index.bi),
        ]
        if index.mono_in is not None:
            sections.append(("mono_in", index.mono_in))
        write_store(path, "chromland", meta, sections)
        return
    raise TypeError(f"cannot save index of type {type(index).__name__}")


def open_index(
    path: str | os.PathLike[str], graph: EdgeLabeledGraph
) -> PowCovIndex | ChromLandIndex:
    """Open a store file for ``graph``: a PowCov or ChromLand index.

    Opening reads the header only; index sections fault in lazily as
    queries touch them.
    """
    store = Store(path)
    if store.kind == "powcov":
        stored = _check_fingerprint(store, graph)
        landmarks = [int(x) for x in store.array("landmarks")]
        n = graph.num_vertices
        k = len(landmarks)
        tables = [
            PowCovTable(
                store.array(f"{prefix}_key"), store.array(f"{prefix}_dist"),
                store.array(f"{prefix}_mask"), k, n,
            )
            for prefix in ("fwd", "rev")
            if f"{prefix}_key" in store
        ]
        (estimator,) = _require_meta(store, "estimator")
        index: PowCovIndex | ChromLandIndex = PowCovIndex.from_tables(
            graph, landmarks, *tables, estimator=str(estimator)
        )
        index.stored_fingerprint = stored
        return index
    if store.kind == "chromland":
        stored = _check_fingerprint(store, graph)
        (query_mode,) = _require_meta(store, "query_mode")
        index = ChromLandIndex(
            graph,
            [int(x) for x in store.array("landmarks")],
            [int(c) for c in store.array("colors")],
            query_mode=str(query_mode),
        )
        index.mono = store.array("mono")
        index.bi = store.array("bi")
        if "mono_in" in store:
            index.mono_in = store.array("mono_in")
        index._built = True  # noqa: SLF001 - store is a friend module
        index.stored_fingerprint = stored
        return index
    raise FormatError(
        f"{store.path} does not hold an index (kind={store.kind!r})"
    )


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def save_graph(graph: EdgeLabeledGraph, path: str | os.PathLike[str]) -> None:
    """Write a graph's CSR arrays as a ``kind="graph"`` store file."""
    label_names = None
    if graph.label_universe is not None:
        label_names = list(graph.label_universe)
    meta = {
        "fingerprint": int(graph_fingerprint(graph)),
        "num_labels": graph.num_labels,
        "directed": graph.directed,
        "num_edges": graph.num_edges,
        "label_names": label_names,
    }
    sections = [
        ("indptr", graph.indptr),
        ("neighbors", graph.neighbors),
        ("edge_labels", graph.edge_labels),
    ]
    write_store(path, "graph", meta, sections)


def open_graph(path: str | os.PathLike[str]) -> EdgeLabeledGraph:
    """Open a graph store file as a zero-copy mapped graph.

    The CSR sections are stored in the exact dtypes the constructor keeps
    (int64/int32/int16), so the returned graph's arrays *are* the memmap
    views — N processes opening the same file share one physical copy.
    """
    store = Store(path)
    if store.kind != "graph":
        raise FormatError(f"{store.path} is not a graph store file")
    num_labels, directed, num_edges, fingerprint = _require_meta(
        store, "num_labels", "directed", "num_edges", "fingerprint"
    )
    names = store.meta.get("label_names")
    graph = EdgeLabeledGraph(
        store.array("indptr"),
        store.array("neighbors"),
        store.array("edge_labels"),
        num_labels=int(num_labels),
        directed=bool(directed),
        label_universe=LabelUniverse(names) if names else None,
        num_edges=int(num_edges),
    )
    graph._fingerprint = np.int64(int(fingerprint))  # noqa: SLF001
    return graph
