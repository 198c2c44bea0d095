"""Index persistence: save and load built oracles without rebuilding.

Index construction is the expensive step (minutes for PowCov on the larger
stand-ins); a deployed oracle builds once and serves forever.  Both
indexes persist in the one mmap-able store format of :mod:`repro.store`:
a PowCov index writes its sorted table columns as they are, ChromLand its
``mono`` / ``bi`` (and directed ``mono_in``) matrices, and opening a file
maps the sections back without regrouping anything (see
``docs/FORMATS.md``).

The graph itself is *not* embedded — the caller supplies it on load (it
has its own persistence in :mod:`repro.graph.io` and
:func:`repro.store.save_graph`) and a fingerprint check rejects
mismatched graphs.  Malformed or version-skewed files raise
:class:`~repro.store.format.FormatError`.
"""

from __future__ import annotations

import os

from ..graph.fingerprint import graph_fingerprint
from ..graph.labeled_graph import EdgeLabeledGraph
from .chromland import ChromLandIndex
from .powcov import PowCovIndex

__all__ = [
    "graph_fingerprint",
    "save_index",
    "load_index",
]


# ``graph_fingerprint`` moved down into :mod:`repro.graph.fingerprint` so
# the delta layer can mint lineage fingerprints without a layering cycle;
# it is re-imported above and stays part of this module's public API.


def save_index(
    index: PowCovIndex | ChromLandIndex,
    path: str | os.PathLike,
    compress: bool = False,
) -> None:
    """Persist a built index as a store file.

    ``compress`` varint/delta-encodes the integer sections (smaller file,
    eager decode on open).
    """
    from ..store.index_store import save_index as store_save

    store_save(index, path, compress=compress)


def load_index(
    path: str | os.PathLike, graph: EdgeLabeledGraph
) -> PowCovIndex | ChromLandIndex:
    """Open a persisted index for ``graph``.

    The loaded index carries ``stored_fingerprint`` and has been verified
    against ``graph``.
    """
    from ..store.index_store import open_index

    return open_index(path, graph)
