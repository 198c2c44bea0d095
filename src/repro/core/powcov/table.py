"""The PowCov table: every stored entry in three sorted parallel columns.

Section 3 stores, per landmark-vertex pair ``(x, u)``, the SP-minimal
label sets with their distances, and Theorem 1 answers ``d_C(x, u)`` as
the first stored set, in distance order, that is a subset of ``C``.  One
table sorted by ``(landmark_index * n + vertex, dist, mask)`` gives
exactly that scan order, so it is the only form a PowCov index takes:

* the builders emit each landmark's entries already ``(vertex, dist,
  mask)``-sorted, and :meth:`PowCovTable.from_landmarks` concatenates
  them in landmark order — the global sort falls out with no re-sort;
* delta repair reads a landmark's entries as :meth:`landmark_slice`
  views and publishes new per-landmark arrays through the same
  constructor, never writing into the old columns;
* the store file holds the three columns verbatim, and an opened index
  wraps the memmapped sections directly, so only the pages a query
  touches are faulted in.

Distances are int64 (hop counts) or float64 (weighted indexes); keys and
masks are int64.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..types import INF

__all__ = ["PowCovTable"]

#: One landmark's entries: ``(vertex, dist, mask)``, sorted in that order.
LandmarkArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


class PowCovTable:
    """One direction's PowCov entries as flat sorted parallel arrays.

    ``key`` is ``landmark_index * num_vertices + vertex`` (int64, sorted
    ascending); ``dist`` and ``mask`` are parallel.  Within one key the
    entries are sorted by ``(distance, mask)``, so the first subset hit of
    a key's run is the Theorem 1 minimum.
    """

    __slots__ = ("key", "dist", "mask", "num_landmarks", "num_vertices")

    def __init__(
        self,
        key: np.ndarray,
        dist: np.ndarray,
        mask: np.ndarray,
        num_landmarks: int,
        num_vertices: int,
    ) -> None:
        if not (len(key) == len(dist) == len(mask)):
            raise ValueError("key/dist/mask must be parallel arrays")
        self.key = key
        self.dist = dist
        self.mask = mask
        self.num_landmarks = num_landmarks
        self.num_vertices = num_vertices

    @classmethod
    def from_landmarks(
        cls, parts: Sequence[LandmarkArrays], num_vertices: int
    ) -> "PowCovTable":
        """Concatenate per-landmark ``(vertex, dist, mask)`` arrays, in
        landmark order, into the globally key-sorted table."""
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, empty, 0, num_vertices)
        key = np.concatenate([
            np.asarray(vertex, dtype=np.int64) + np.int64(i) * num_vertices
            for i, (vertex, _dist, _mask) in enumerate(parts)
        ])
        dist = np.concatenate([dist for _vertex, dist, _mask in parts])
        mask = np.concatenate(
            [np.asarray(mask, dtype=np.int64) for _vertex, _dist, mask in parts]
        )
        return cls(key, dist, mask, len(parts), num_vertices)

    def __len__(self) -> int:
        return len(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowCovTable):
            return NotImplemented
        return (
            self.num_landmarks == other.num_landmarks
            and self.num_vertices == other.num_vertices
            and all(
                a.dtype == b.dtype and np.array_equal(a, b)
                for a, b in (
                    (self.key, other.key),
                    (self.dist, other.dist),
                    (self.mask, other.mask),
                )
            )
        )

    __hash__ = None  # type: ignore[assignment]

    def key_of(self, landmark_index: int, vertex: int) -> int:
        """The key of the ``(landmark, vertex)`` pair."""
        # Deliberate domain mix: the key *packs* (landmark, vertex) into
        # one int64.
        return landmark_index * self.num_vertices + vertex  # noqa: REPRO010

    def pair_of(self, key: int) -> tuple[int, int]:
        """``(landmark_index, vertex)`` of a key."""
        landmark_index, vertex = divmod(int(key), self.num_vertices)
        return landmark_index, vertex

    def landmark_slice(self, landmark_index: int) -> LandmarkArrays:
        """One landmark's entries: ``(vertex, dist, mask)``.

        ``dist`` and ``mask`` are views into the table's columns;
        ``vertex`` is derived from the key column.
        """
        base = self.key_of(landmark_index, 0)
        lo, hi = np.searchsorted(self.key, [base, base + self.num_vertices])
        return (
            self.key[lo:hi] - np.int64(base),
            self.dist[lo:hi],
            self.mask[lo:hi],
        )

    def lookup_one(self, landmark_index: int, vertex: int, label_mask: int) -> float:
        """Exact ``d_C(x, u)``: searchsorted slice + first-subset scan."""
        key = self.key_of(landmark_index, vertex)
        lo = int(np.searchsorted(self.key, key, side="left"))
        hi = int(np.searchsorted(self.key, key, side="right"))
        masks = self.mask[lo:hi]
        for offset in range(hi - lo):
            mask = int(masks[offset])
            if mask & label_mask == mask:
                return float(self.dist[lo + offset])
        return INF

    def lookup_many(self, vertices: np.ndarray, label_mask: int) -> np.ndarray:
        """``d_C(x, u)`` for every landmark × every vertex in one sweep.

        Returns ``(len(vertices), k)`` float64 with ``inf`` where no stored
        label set is a subset of ``label_mask`` — the vectorized
        counterpart of :meth:`lookup_one`, with the same first-hit
        semantics.
        """
        k = self.num_landmarks
        out = np.full((len(vertices), k), INF, dtype=np.float64)
        if len(vertices) == 0 or len(self.key) == 0:
            return out
        # Probe keys in vertex-major order, so a key's position is also
        # its flat index into ``out``.
        keys = (
            np.asarray(vertices, dtype=np.int64)[:, None]
            + np.arange(k, dtype=np.int64)[None, :] * self.num_vertices
        ).ravel()
        # Integer keys: the right end of ``key``'s run is the left end of
        # ``key + 1``'s, so one searchsorted finds both.
        bounds = np.searchsorted(self.key, np.concatenate((keys, keys + 1)))
        lo = bounds[: len(keys)]
        counts = bounds[len(keys):] - lo
        total = int(counts.sum())
        if total == 0:
            return out
        # Flat entry indices of every key's slice, concatenated.
        idx = np.arange(total, dtype=np.int64)
        idx += np.repeat(lo - np.cumsum(counts) + counts, counts)
        grid = np.repeat(np.arange(len(keys), dtype=np.int64), counts)
        masks = np.asarray(self.mask)[idx]
        ok = (masks & label_mask) == masks
        grid = grid[ok]
        if len(grid) == 0:
            return out
        # Runs are (dist, mask)-sorted: the first hit per key is the minimum.
        first = np.empty(len(grid), dtype=bool)
        first[0] = True
        np.not_equal(grid[1:], grid[:-1], out=first[1:])
        out.reshape(-1)[grid[first]] = np.asarray(self.dist)[idx[ok][first]]
        return out

    def pair_counts(self) -> np.ndarray:
        """Entries per distinct ``(landmark, vertex)`` pair (run lengths)."""
        return run_lengths(self.key)


def run_lengths(sorted_values: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal values in a sorted array."""
    if len(sorted_values) == 0:
        return np.empty(0, dtype=np.int64)
    boundaries = np.flatnonzero(np.diff(np.asarray(sorted_values)))
    edges = np.empty(len(boundaries) + 2, dtype=np.int64)
    edges[0] = 0
    edges[1:-1] = boundaries + 1
    edges[-1] = len(sorted_values)
    return np.diff(edges)
