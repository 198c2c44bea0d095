"""File-backed graph handoff for multi-process index construction.

Pickling an :class:`~repro.graph.labeled_graph.EdgeLabeledGraph` per task
copies the full CSR arrays into every worker on every submission.  This
module instead ships one small picklable :class:`GraphDescriptor` per
graph: for each CSR array, a :class:`FileArraySpec` naming a region of a
graph store file.  Every worker maps the same file regions, so the page
cache holds one physical copy of the graph.

A graph opened from the :mod:`repro.store` format already is such a
mapping and is described in place, with nothing copied.  Any other graph
is first written once to a temporary graph store file
(:func:`repro.store.index_store.save_graph`) in the temporary directory
(``TMPDIR``).

Lifecycle
---------
The parent calls :func:`share_graphs` and must call
:meth:`SharedGraphPack.release` when the pool is done, which removes the
temporary files — :func:`repro.perf.parallel.run_tasks` does this in a
``finally`` block, so nothing is left behind even when a worker raises.
Workers call :func:`attach_graph`, whose graph arrays are read-only
memmap views.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from ..graph.labeled_graph import EdgeLabeledGraph

__all__ = [
    "FileArraySpec",
    "GraphDescriptor",
    "SharedGraphPack",
    "share_graphs",
    "attach_graph",
]


@dataclass(frozen=True)
class FileArraySpec:
    """Picklable description of one file-backed (memmap) numpy array."""

    path: str
    #: absolute byte offset of the array's first element within the file.
    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class GraphDescriptor:
    """Everything a worker needs to reattach one graph (small, picklable)."""

    indptr: FileArraySpec
    neighbors: FileArraySpec
    edge_labels: FileArraySpec
    num_labels: int
    directed: bool
    num_edges: int


def _file_backing(array: np.ndarray) -> FileArraySpec | None:
    """The file region behind ``array`` when it is a contiguous memmap view.

    Walks the ``.base`` chain looking for an ``np.memmap``; the view's
    file offset is the memmap's own offset plus the pointer distance
    between the two buffers.  An empty array needs no file (a worker
    recreates it from its shape).  Returns ``None`` for plain in-memory
    arrays and for non-contiguous views.
    """
    shape, dtype = tuple(array.shape), array.dtype.str
    if array.size == 0:
        return FileArraySpec("", 0, shape, dtype)
    if not array.flags["C_CONTIGUOUS"]:
        return None
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            filename = base.filename
            if filename is None:  # pragma: no cover - anonymous mapping
                return None
            pointer = array.__array_interface__["data"][0]
            base_pointer = base.__array_interface__["data"][0]
            offset = int(base.offset) + (pointer - base_pointer)
            return FileArraySpec(os.fspath(filename), offset, shape, dtype)
        base = getattr(base, "base", None)
    return None


def _describe(graph: EdgeLabeledGraph) -> GraphDescriptor | None:
    """The graph's descriptor, or ``None`` if any CSR array is in memory."""
    indptr, neighbors, edge_labels = (
        _file_backing(array)
        for array in (graph.indptr, graph.neighbors, graph.edge_labels)
    )
    if indptr is None or neighbors is None or edge_labels is None:
        return None
    return GraphDescriptor(
        indptr=indptr,
        neighbors=neighbors,
        edge_labels=edge_labels,
        num_labels=graph.num_labels,
        directed=graph.directed,
        num_edges=graph.num_edges,
    )


def _remove(paths: list[str]) -> None:
    """Delete (and forget) every file in ``paths``."""
    while paths:
        try:
            os.unlink(paths.pop())
        except FileNotFoundError:  # pragma: no cover - already removed
            pass


class SharedGraphPack:
    """Parent-side owner of the temporary graph files for a tuple of graphs."""

    def __init__(
        self, descriptors: tuple[GraphDescriptor, ...], temp_files: list[str]
    ) -> None:
        self.descriptors = descriptors
        #: temporary graph files written by :func:`share_graphs`.
        self.temp_files = temp_files

    def release(self) -> None:
        """Remove every temporary graph file (idempotent)."""
        _remove(self.temp_files)


def share_graphs(graphs: tuple[EdgeLabeledGraph, ...]) -> SharedGraphPack:
    """Describe every graph's CSR arrays by file region for the workers.

    Graphs already mapped from a store file are described in place; each
    other graph is saved once to a temporary graph file and described by
    the regions of that file.  On failure the files written so far are
    removed before re-raising.
    """
    # Local import: the store pulls in the index packages, which import
    # this module through repro.perf.parallel.
    from ..store.index_store import open_graph, save_graph

    temp_files: list[str] = []
    descriptors: list[GraphDescriptor] = []
    try:
        for graph in graphs:
            descriptor = _describe(graph)
            if descriptor is None:
                handle, path = tempfile.mkstemp(prefix="repro-graph-", suffix=".repro")
                os.close(handle)
                temp_files.append(path)
                save_graph(graph, path)
                descriptor = _describe(open_graph(path))
                if descriptor is None:  # pragma: no cover - raw sections map
                    raise RuntimeError(f"{path}: graph file did not map")
            descriptors.append(descriptor)
    except BaseException:
        _remove(temp_files)
        raise
    return SharedGraphPack(tuple(descriptors), temp_files)


def _attach_array(spec: FileArraySpec) -> np.ndarray:
    """Zero-copy read-only view over an exported array (worker side)."""
    dtype = np.dtype(spec.dtype)
    if any(dim == 0 for dim in spec.shape):
        # np.memmap cannot map zero bytes; an empty array is free.
        return np.empty(spec.shape, dtype=dtype)
    return np.memmap(
        spec.path, mode="r", dtype=dtype, shape=spec.shape, offset=spec.offset
    )


def attach_graph(descriptor: GraphDescriptor) -> EdgeLabeledGraph:
    """Reconstruct a zero-copy :class:`EdgeLabeledGraph` in a worker.

    The arrays map the parent's file regions; ``EdgeLabeledGraph.__init__``
    keeps already-contiguous arrays of the right dtype as-is, so no copy
    happens.
    """
    return EdgeLabeledGraph(
        _attach_array(descriptor.indptr),
        _attach_array(descriptor.neighbors),
        _attach_array(descriptor.edge_labels),
        num_labels=descriptor.num_labels,
        directed=descriptor.directed,
        num_edges=descriptor.num_edges,
    )
