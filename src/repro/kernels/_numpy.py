"""The pure-numpy kernel backend — always available, bit-identity reference.

It implements every :class:`~repro.kernels.KernelBackend` method: the
bit-parallel MS-BFS sweep, the sparse multi-source sweep (the single-row
level loop of :func:`repro.graph.traversal.constrained_bfs`, once per
row), the Theorem 2 one-removed pass of ``repro.core.powcov.waves`` and
the dense auxiliary Dijkstra of ``repro.core.chromland.query``.  The
compiled backends are checked against this one bit-for-bit, so any
change here is a semantic change for all of them.
"""

from __future__ import annotations

import numpy as np

from ..graph.traversal import csr_constrained_bfs
from . import BITSET_LANE_ROWS

__all__ = ["NumpyKernel"]

_INF = np.float64(np.inf)


class NumpyKernel:
    """Vectorized numpy implementations of the kernel loops."""

    name = "numpy"

    def msbfs_bitset(
        self,
        in_indptr: np.ndarray,
        in_neighbors: np.ndarray,
        in_labels: np.ndarray,
        num_vertices: int,
        sources: np.ndarray,
        allowed: np.ndarray,
        dist: np.ndarray,
        max_level: int,
    ) -> None:
        """Bit-parallel multi-source constrained BFS (MS-BFS style).

        Rows are packed :data:`BITSET_LANE_ROWS` to a ``uint64`` lane:
        ``frontier[v]`` holds one bit per row whose BFS front currently
        contains ``v``, and a level expands *every* row of a chunk with
        one full-arc sweep — gather the frontier word of each arc's
        source, AND it with the arc label's row mask, and OR-reduce per
        target vertex (``np.bitwise_or.reduceat`` over the in-arc CSR).
        Per-level cost is therefore independent of how many rows the
        chunk holds, which is what makes wide PowCov waves cheap.  Writes
        levels into ``dist`` in place (rows already seeded with 0 at
        their sources).
        """
        n = num_vertices
        num_arcs = len(in_neighbors)
        if num_arcs == 0:
            return
        seg_starts = in_indptr[:-1]
        # Reduce over non-empty segments only, then scatter.  Empty
        # segments have zero width, so consecutive non-empty starts are
        # exact segment boundaries — and no reduceat index can go out of
        # range or (the subtle failure) truncate the preceding vertex's
        # arc range the way a clamped trailing start would.
        nonempty_idx = np.nonzero(in_indptr[1:] != seg_starts)[0]
        nonempty_starts = seg_starts[nonempty_idx]
        for lo in range(0, len(sources), BITSET_LANE_ROWS):
            chunk_rows = min(BITSET_LANE_ROWS, len(sources) - lo)
            row_bits = np.uint64(1) << np.arange(chunk_rows, dtype=np.uint64)
            # ``label_bits[l]``: rows of this chunk whose mask allows ``l``.
            label_bits = (allowed[lo : lo + chunk_rows].astype(np.uint64)
                          * row_bits[:, None]).sum(axis=0)
            frontier = np.zeros(n, dtype=np.uint64)
            np.bitwise_or.at(frontier, sources[lo : lo + chunk_rows], row_bits)
            visited = frontier.copy()
            level = 0
            while True:
                level += 1
                if max_level >= 0 and level > max_level:
                    break
                contrib = frontier[in_neighbors] & label_bits[in_labels]
                reached = np.zeros(n, dtype=np.uint64)
                reached[nonempty_idx] = np.bitwise_or.reduceat(
                    contrib, nonempty_starts
                )
                new = reached & ~visited
                hit = np.nonzero(new)[0]
                if hit.size == 0:
                    break
                visited |= new
                cols = (new[hit][:, None]
                        >> np.arange(chunk_rows, dtype=np.uint64)) & np.uint64(1)
                vv, rr = np.nonzero(cols)
                dist[lo + rr, hit[vv]] = level
                frontier = new

    def msbfs_sparse(
        self,
        indptr: np.ndarray,
        neighbors: np.ndarray,
        edge_labels: np.ndarray,
        num_vertices: int,
        sources: np.ndarray,
        allowed: np.ndarray,
        dist: np.ndarray,
        max_level: int,
    ) -> None:
        """One :func:`~repro.graph.traversal.csr_constrained_bfs` per row.

        Each row's cost scales with the subgraph its mask reaches, not
        with whole-arc sweeps; ``dist`` rows are written in place.
        """
        for row, source in enumerate(sources):
            csr_constrained_bfs(
                indptr, neighbors, edge_labels, allowed[row], int(source),
                dist[row], max_level,
            )

    def one_removed_pass(
        self, dist: np.ndarray, prev_rows: np.ndarray, sub_rows: np.ndarray
    ) -> np.ndarray:
        """Gather each mask's one-removed rows and minimum-reduce them."""
        best = prev_rows[sub_rows[:, 0]]
        for j in range(1, sub_rows.shape[1]):
            np.minimum(best, prev_rows[sub_rows[:, j]], out=best)
        return dist < best

    def aux_dijkstra(
        self,
        weights: np.ndarray,
        ds: np.ndarray,
        dt: np.ndarray,
        best: float,
    ) -> float:
        """O(k^2) dense Dijkstra from the virtual source node.

        Initialize landmark tentative distances with the s—x edges,
        repeatedly settle the nearest landmark, relax through its
        bi-chromatic row, and keep the running best completion through
        the t—x edges.
        """
        k = len(ds)
        dist = ds.copy()
        settled = np.zeros(k, dtype=bool)
        for _ in range(k):
            dist_masked = np.where(settled, _INF, dist)
            i = int(dist_masked.argmin())
            di = dist_masked[i]
            if not np.isfinite(di) or di >= best:
                break  # every remaining completion is at least `best`
            settled[i] = True
            np.minimum(dist, di + weights[i], out=dist)
            completion = di + dt[i]
            if completion < best:
                best = completion
        return float(best)
