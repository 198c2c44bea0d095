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

import json
import os
from typing import TYPE_CHECKING, Any

from ..graph.fingerprint import graph_fingerprint

if TYPE_CHECKING:
    from ..core.chromland import ChromLandIndex
    from ..core.powcov import PowCovIndex
    from ..graph.labeled_graph import EdgeLabeledGraph

__all__ = ["IndexStore"]

_SUFFIX = ".repro"
_LINEAGE_FILE = "lineage.jsonl"


class IndexStore:
    """One directory of persisted indexes, addressed by graph fingerprint.

    Parameters
    ----------
    directory:
        Where the files live; created on first save.
    compress:
        Varint/delta-compress the integer sections.
    writable:
        ``False`` makes :meth:`save` a no-op — the CLI's pure
        ``--load-index`` mode, where a read-only cache directory (e.g. a
        shared artifact volume) must never be written to.
    capacity:
        Maximum number of index files retained (``None`` = unbounded, the
        historical behavior).  When a save pushes the directory past the
        cap, the least-recently-*used* files are deleted — :meth:`load`
        hits refresh a file's timestamp, so hot indexes survive.
        Evictions are counted on :attr:`evictions` (and the
        ``store.cache_evictions`` metric when metrics are enabled).
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        compress: bool = False,
        writable: bool = True,
        capacity: int | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.directory = os.fspath(directory)
        self.compress = compress
        self.writable = writable
        self.capacity = capacity
        #: index files deleted by the LRU cap over this store's lifetime.
        self.evictions = 0

    def path_for(
        self, kind: str, graph: "EdgeLabeledGraph", tag: str = "default"
    ) -> str:
        """Canonical path for (kind, graph, tag)."""
        name = f"{kind}-{int(graph_fingerprint(graph)):016x}-{tag}"
        return os.path.join(self.directory, name + _SUFFIX)

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

        index = open_index(path, graph)
        if self.capacity is not None and self.writable:
            try:
                os.utime(path)  # refresh recency so the LRU cap spares it
            except OSError:
                pass
        return index

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
        save_index(index, path, compress=self.compress)
        self._record_lineage(index.graph)
        self._enforce_capacity(keep=path)
        return path

    # ------------------------------------------------------------------
    # LRU capacity
    # ------------------------------------------------------------------
    def _index_files(self) -> list[str]:
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        return [
            os.path.join(self.directory, name)
            for name in sorted(names)
            if name.endswith(_SUFFIX)
        ]

    def _enforce_capacity(self, keep: str) -> None:
        if self.capacity is None:
            return
        files = self._index_files()
        if len(files) <= self.capacity:
            return
        def mtime(path: str) -> float:
            try:
                return os.path.getmtime(path)
            except OSError:
                return float("inf")  # vanished concurrently; never evict

        # Oldest-access first; the file just written is always spared.
        victims = sorted(
            (f for f in files if f != keep), key=mtime
        )[: len(files) - self.capacity]
        for victim in victims:
            try:
                os.remove(victim)
            except OSError:
                continue
            self.evictions += 1
        if victims:
            from ..obs.metrics import metrics_enabled, registry

            if metrics_enabled():
                registry().counter("store.cache_evictions").inc(len(victims))

    # ------------------------------------------------------------------
    # Fingerprint lineage
    # ------------------------------------------------------------------
    @property
    def lineage_path(self) -> str:
        return os.path.join(self.directory, _LINEAGE_FILE)

    def _record_lineage(self, graph: "EdgeLabeledGraph") -> None:
        """Append this graph version's parent link to the lineage manifest.

        Saved indexes are fingerprint-addressed, so after a mutation the
        old version's files look unrelated to the new version's.  The
        manifest records ``child fingerprint -> parent fingerprint`` (plus
        the delta shape) for every versioned graph saved here, letting
        :meth:`lineage_of` walk a cached index back to its build ancestor.
        """
        parent = getattr(graph, "parent_fingerprint", None)
        delta = getattr(graph, "applied_delta", None)
        if parent is None or delta is None:
            return
        entry = {
            "fingerprint": f"{int(graph_fingerprint(graph)):016x}",
            "parent": f"{int(parent):016x}",
            "version": int(getattr(graph, "version", 0)),
            "delta": delta.describe(),
        }
        known = {e["fingerprint"]: e for e in self._read_lineage()}
        if known.get(entry["fingerprint"]) == entry:
            return
        with open(self.lineage_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def _read_lineage(self) -> list[dict[str, Any]]:
        try:
            with open(self.lineage_path, encoding="utf-8") as handle:
                return [json.loads(line) for line in handle if line.strip()]
        except FileNotFoundError:
            return []

    def lineage_of(self, graph: "EdgeLabeledGraph") -> list[dict[str, Any]]:
        """The recorded version chain ending at ``graph``, child-first.

        Each element is a manifest entry (``fingerprint``, ``parent``,
        ``version``, ``delta``); an empty list means the graph was never
        saved here as a mutated version (or is an original build).
        """
        by_child = {e["fingerprint"]: e for e in self._read_lineage()}
        chain: list[dict[str, Any]] = []
        cursor = f"{int(graph_fingerprint(graph)):016x}"
        while cursor in by_child and len(chain) < len(by_child):
            entry = by_child[cursor]
            chain.append(entry)
            cursor = entry["parent"]
        return chain

    def __repr__(self) -> str:
        return (
            f"IndexStore({self.directory!r}, "
            f"compress={self.compress}, writable={self.writable}, "
            f"capacity={self.capacity})"
        )

