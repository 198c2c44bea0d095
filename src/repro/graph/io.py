"""Loading and saving edge-labeled graphs as edge-list text.

One edge per line, ``u v label`` separated by whitespace (or a custom
delimiter).  Vertices and labels may be arbitrary strings; comment lines
start with ``#``.  This matches how the public snapshots of the paper's
datasets (BioGrid, String, YouTube, ...) are distributed, so the loaders
work unchanged if a user supplies the real files.

The binary form of a graph is the mmap-able store file:
:func:`repro.store.index_store.save_graph` / ``open_graph``.
"""

from __future__ import annotations

import os

from .builder import GraphBuilder
from .labeled_graph import EdgeLabeledGraph

__all__ = [
    "load_edge_list",
    "save_edge_list",
]


def load_edge_list(
    path: str | os.PathLike,
    directed: bool = False,
    delimiter: str | None = None,
) -> EdgeLabeledGraph:
    """Parse a ``u v label`` edge-list file into a graph.

    Raises ``ValueError`` on malformed lines (fewer than three fields) so
    that silent data truncation cannot occur.
    """
    builder = GraphBuilder(directed=directed)
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(delimiter)
            if len(parts) < 3:
                raise ValueError(
                    f"{path}:{line_number}: expected 'u v label', got {line!r}"
                )
            u, v, label = parts[0], parts[1], parts[2]
            if u == v:
                continue  # drop self-loops, as the graph model requires
            builder.add_edge(u, v, label)
    return builder.build()


def save_edge_list(graph: EdgeLabeledGraph, path: str | os.PathLike) -> None:
    """Write ``graph`` as a ``u v label`` text file (dense ids, label names)."""
    universe = graph.label_universe
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# n={graph.num_vertices} m={graph.num_edges} labels={graph.num_labels}\n")
        for u, v, label in graph.iter_edges():
            name = universe.name(label) if universe is not None else str(label)
            handle.write(f"{u} {v} {name}\n")

