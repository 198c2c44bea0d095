"""Directory-backed index store: fingerprint-addressed save/load.

An :class:`IndexStore` names files by ``{kind}-{fingerprint:016x}-{tag}``
inside one directory, so a cached index can never be served against the
wrong graph — a different graph hashes to a different filename, and the
loader re-verifies the embedded fingerprint anyway.  Files are in the
zero-copy store format of :mod:`repro.store.index_store`.

The eval CLI's ``--save-index`` / ``--load-index`` flags open one store
and pass it as ``index_store=`` down through the command they run; the
eval runners consult it before rebuilding an index from scratch.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ..graph.fingerprint import graph_fingerprint
from .format import STORE_SUFFIX

if TYPE_CHECKING:
    from ..core.chromland import ChromLandIndex
    from ..core.powcov import PowCovIndex
    from ..graph.labeled_graph import EdgeLabeledGraph

__all__ = ["IndexStore"]


class IndexStore:
    """One directory of persisted indexes, addressed by graph fingerprint.

    Parameters
    ----------
    directory:
        Where the files live; created on first save.
    writable:
        ``False`` makes :meth:`save` a no-op — the CLI's pure
        ``--load-index`` mode, where a read-only cache directory (e.g. a
        shared artifact volume) must never be written to.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        writable: bool = True,
    ) -> None:
        self.directory = os.fspath(directory)
        self.writable = writable

    def path_for(
        self, kind: str, graph: "EdgeLabeledGraph", tag: str = "default"
    ) -> str:
        """Canonical path for (kind, graph, tag)."""
        name = f"{kind}-{int(graph_fingerprint(graph)):016x}-{tag}"
        return os.path.join(self.directory, name + STORE_SUFFIX)

    def find(
        self, kind: str, graph: "EdgeLabeledGraph", tag: str = "default"
    ) -> str | None:
        """The existing file for (kind, graph, tag), if any."""
        path = self.path_for(kind, graph, tag)
        return path if os.path.isfile(path) else None

    def load(
        self, kind: str, graph: "EdgeLabeledGraph", tag: str = "default"
    ) -> "PowCovIndex | ChromLandIndex | None":
        """Open the cached index for ``graph``, or ``None`` if absent."""
        path = self.find(kind, graph, tag)
        if path is None:
            return None
        from .index_store import open_index  # local: avoids cycle

        return open_index(path, graph)

    def save(
        self, index: "PowCovIndex | ChromLandIndex", tag: str = "default"
    ) -> str | None:
        """Persist a built index; returns the path (``None`` if read-only)."""
        if not self.writable:
            return None
        from ..core.chromland import ChromLandIndex  # local: avoids cycle
        from .index_store import save_index  # local: avoids cycle

        kind = "chromland" if isinstance(index, ChromLandIndex) else "powcov"
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(kind, index.graph, tag)
        save_index(index, path)
        return path

    def __repr__(self) -> str:
        return f"IndexStore({self.directory!r}, writable={self.writable})"

