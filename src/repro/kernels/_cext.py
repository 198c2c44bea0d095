"""C-extension kernel backend: compile-on-demand via the system compiler.

The three hot loops as portable C99, compiled once per source hash with
whatever ``cc``/``gcc``/``clang`` is on ``PATH`` (``$CC`` wins) into a
shared library cached under ``REPRO_KERNEL_CACHE`` (default
``$XDG_CACHE_HOME/repro-kernels``) and loaded through ``ctypes`` — which
releases the GIL for the duration of every call, so thread-parallel
builds overlap.

It needs nothing beyond a C compiler — no extra Python package — and
keeps the numpy reference's bit-identity guarantees.  The loops mirror
the numpy reference exactly:
BFS levels are exact integers, the Theorem 2 sweep is an integer
min/compare, and the Dijkstra replays numpy's IEEE operation order
(first-minimum selection, same addition order, same early-exit test).

Import (and therefore the compile probe) only ever happens through the
:func:`repro.kernels.resolve_kernel` registry — a missing compiler turns
into a memoized probe failure there, never an exception for callers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["CExtensionKernel"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Bit-parallel multi-source constrained BFS over the in-arc CSR.
 * Rows are packed 64 to a uint64 lane; one level expands every row of a
 * chunk with a single full-arc sweep.  dist is (num_rows, n) int32,
 * pre-seeded with 0 at each row's source; levels are written in place.
 * max_level < 0 means unbounded.  Returns 0, or -1 on allocation failure. */
int repro_msbfs_bitset(
    const int64_t *in_indptr, const int32_t *in_neighbors,
    const int16_t *in_labels, int64_t n,
    const int64_t *sources, int64_t num_rows,
    const uint8_t *allowed, int64_t num_labels,
    int32_t *dist, int64_t max_level)
{
    if (n == 0 || num_rows == 0) return 0;
    if (in_indptr[n] == 0) return 0;  /* no arcs: sources stay level 0 */
    uint64_t *frontier = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    uint64_t *next = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    uint64_t *visited = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    uint64_t *label_bits = num_labels
        ? (uint64_t *)malloc((size_t)num_labels * sizeof(uint64_t))
        : NULL;
    if (!frontier || !next || !visited || (num_labels && !label_bits)) {
        free(frontier); free(next); free(visited); free(label_bits);
        return -1;
    }
    for (int64_t lo = 0; lo < num_rows; lo += 64) {
        int chunk = (int)(num_rows - lo < 64 ? num_rows - lo : 64);
        for (int64_t l = 0; l < num_labels; l++) {
            uint64_t bits = 0;
            for (int b = 0; b < chunk; b++)
                if (allowed[(size_t)(lo + b) * (size_t)num_labels + l])
                    bits |= (uint64_t)1 << b;
            label_bits[l] = bits;
        }
        memset(frontier, 0, (size_t)n * sizeof(uint64_t));
        for (int b = 0; b < chunk; b++)
            frontier[sources[lo + b]] |= (uint64_t)1 << b;
        memcpy(visited, frontier, (size_t)n * sizeof(uint64_t));
        int64_t level = 0;
        for (;;) {
            level++;
            if (max_level >= 0 && level > max_level) break;
            int any = 0;
            for (int64_t v = 0; v < n; v++) {
                uint64_t acc = 0;
                for (int64_t a = in_indptr[v]; a < in_indptr[v + 1]; a++)
                    acc |= frontier[in_neighbors[a]] & label_bits[in_labels[a]];
                uint64_t fresh = acc & ~visited[v];
                next[v] = fresh;  /* every v assigned: no memset needed */
                if (fresh) {
                    any = 1;
                    visited[v] |= fresh;
                    uint64_t bits = fresh;
                    while (bits) {
                        int b = __builtin_ctzll(bits);
                        bits &= bits - 1;
                        dist[(size_t)(lo + b) * (size_t)n + v] = (int32_t)level;
                    }
                }
            }
            if (!any) break;
            uint64_t *tmp = frontier; frontier = next; next = tmp;
        }
    }
    free(frontier); free(next); free(visited); free(label_bits);
    return 0;
}

/* Sparse path: one sequential BFS per row over the out-arc CSR with a
 * per-arc label test.  Rows whose frontier dies stop costing anything
 * (the compiled analogue of the numpy path's active-row compaction).
 * dist rows use -1 (UNREACHABLE) for unvisited, 0 pre-seeded at the
 * source.  Returns 0, or -1 on allocation failure. */
int repro_msbfs_sparse(
    const int64_t *indptr, const int32_t *neighbors,
    const int16_t *labels, int64_t n,
    const int64_t *sources, int64_t num_rows,
    const uint8_t *allowed, int64_t num_labels,
    int32_t *dist, int64_t max_level)
{
    if (n == 0 || num_rows == 0) return 0;
    int32_t *queue = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    if (!queue) return -1;
    for (int64_t r = 0; r < num_rows; r++) {
        int32_t *drow = dist + (size_t)r * (size_t)n;
        const uint8_t *arow = allowed + (size_t)r * (size_t)num_labels;
        int64_t head = 0, tail = 0;
        queue[tail++] = (int32_t)sources[r];
        while (head < tail) {
            int32_t u = queue[head++];
            int32_t d = drow[u];
            if (max_level >= 0 && (int64_t)d >= max_level) continue;
            for (int64_t a = indptr[u]; a < indptr[u + 1]; a++) {
                if (!arow[labels[a]]) continue;
                int32_t v = neighbors[a];
                if (drow[v] == -1) {
                    drow[v] = d + 1;
                    queue[tail++] = v;
                }
            }
        }
    }
    free(queue);
    return 0;
}

/* Theorem 2 one-removed sweep: out[i, v] = dist[i, v] < min over j of
 * prev_rows[sub_rows[i, j], v].  Returns 0, or -1 on allocation failure. */
int repro_one_removed(
    const int32_t *dist, int64_t wave_rows, int64_t n,
    const int32_t *prev_rows,
    const int64_t *sub_rows, int64_t size,
    uint8_t *out)
{
    if (wave_rows == 0 || n == 0) return 0;
    int32_t *best = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    if (!best) return -1;
    for (int64_t i = 0; i < wave_rows; i++) {
        const int64_t *subs = sub_rows + (size_t)i * (size_t)size;
        memcpy(best, prev_rows + (size_t)subs[0] * (size_t)n,
               (size_t)n * sizeof(int32_t));
        for (int64_t j = 1; j < size; j++) {
            const int32_t *row = prev_rows + (size_t)subs[j] * (size_t)n;
            for (int64_t v = 0; v < n; v++)
                if (row[v] < best[v]) best[v] = row[v];
        }
        const int32_t *drow = dist + (size_t)i * (size_t)n;
        uint8_t *orow = out + (size_t)i * (size_t)n;
        for (int64_t v = 0; v < n; v++)
            orow[v] = drow[v] < best[v];
    }
    free(best);
    return 0;
}

/* Theorem 5 dense Dijkstra from the virtual source.  Bit-identical to
 * the numpy reference: first-minimum selection over unsettled nodes,
 * the same `di + w` addition order, the same early-exit predicate.
 * Returns the best completion, or -1.0 on allocation failure. */
double repro_aux_dijkstra(
    const double *weights, const double *ds, const double *dt,
    int64_t k, double best)
{
    double *dist = (double *)malloc((size_t)k * sizeof(double));
    uint8_t *settled = (uint8_t *)calloc((size_t)k, 1);
    if (!dist || !settled) { free(dist); free(settled); return -1.0; }
    memcpy(dist, ds, (size_t)k * sizeof(double));
    for (int64_t it = 0; it < k; it++) {
        int64_t i = -1;
        double di = INFINITY;
        for (int64_t j = 0; j < k; j++)
            if (!settled[j] && dist[j] < di) { di = dist[j]; i = j; }
        if (i < 0 || !isfinite(di) || di >= best) break;
        settled[i] = 1;
        const double *w = weights + (size_t)i * (size_t)k;
        for (int64_t j = 0; j < k; j++) {
            double nd = di + w[j];
            if (nd < dist[j]) dist[j] = nd;
        }
        double completion = di + dt[i];
        if (completion < best) best = completion;
    }
    free(dist); free(settled);
    return best;
}
"""

_compile_lock = threading.Lock()


def _find_compiler() -> str:
    """The system C compiler (``$CC`` wins); raises if none exists."""
    override = os.environ.get("CC")
    if override:
        found = shutil.which(override)
        if found:
            return found
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    raise RuntimeError("no C compiler (cc/gcc/clang) found on PATH")


def _cache_dir() -> Path:
    """Writable cache directory for compiled kernel libraries."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        base = Path(override)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        root = Path(xdg) if xdg else Path.home() / ".cache"
        base = root / "repro-kernels"
    try:
        base.mkdir(parents=True, exist_ok=True)
        return base
    except OSError:
        # Read-only home: fall back to a per-user tempdir (still cached
        # across builds within the machine's tempdir lifetime).
        fallback = Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"
        fallback.mkdir(parents=True, exist_ok=True)
        return fallback


def _build_library() -> Path:
    """Compile (once per source hash) and return the shared-library path."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    directory = _cache_dir()
    lib_path = directory / f"repro_kernels_{digest}.so"
    if lib_path.exists():
        return lib_path
    with _compile_lock:
        if lib_path.exists():
            return lib_path
        compiler = _find_compiler()
        src_path = directory / f"repro_kernels_{digest}.c"
        src_path.write_text(_SOURCE)
        tmp_path = directory / f".repro_kernels_{digest}.{os.getpid()}.so"
        result = subprocess.run(
            [compiler, "-O3", "-std=c99", "-fPIC", "-shared",
             str(src_path), "-o", str(tmp_path), "-lm"],
            capture_output=True,
            text=True,
            check=False,
        )
        if result.returncode != 0:
            tmp_path.unlink(missing_ok=True)
            raise RuntimeError(
                f"kernel compilation failed ({compiler}): "
                f"{result.stderr.strip()[-500:]}"
            )
        os.replace(tmp_path, lib_path)  # atomic: concurrent probes race safely
    return lib_path


def _ptr(dtype: type, ndim: int) -> object:
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=ndim, flags="C_CONTIGUOUS")


class CExtensionKernel:
    """ctypes bindings over the compiled kernel library."""

    name = "cext"

    def __init__(self) -> None:
        lib = ctypes.CDLL(str(_build_library()))
        i64 = ctypes.c_int64
        lib.repro_msbfs_bitset.restype = ctypes.c_int
        lib.repro_msbfs_bitset.argtypes = [
            _ptr(np.int64, 1), _ptr(np.int32, 1), _ptr(np.int16, 1), i64,
            _ptr(np.int64, 1), i64, _ptr(np.uint8, 2), i64,
            _ptr(np.int32, 2), i64,
        ]
        lib.repro_msbfs_sparse.restype = ctypes.c_int
        lib.repro_msbfs_sparse.argtypes = list(lib.repro_msbfs_bitset.argtypes)
        lib.repro_one_removed.restype = ctypes.c_int
        lib.repro_one_removed.argtypes = [
            _ptr(np.int32, 2), i64, i64, _ptr(np.int32, 2),
            _ptr(np.int64, 2), i64, _ptr(np.uint8, 2),
        ]
        lib.repro_aux_dijkstra.restype = ctypes.c_double
        lib.repro_aux_dijkstra.argtypes = [
            _ptr(np.float64, 2), _ptr(np.float64, 1), _ptr(np.float64, 1),
            i64, ctypes.c_double,
        ]
        self._lib = lib

    # ------------------------------------------------------------------
    @staticmethod
    def _allowed_u8(allowed: np.ndarray) -> np.ndarray:
        """(rows, labels) bool table as a contiguous uint8 view/copy."""
        table = np.ascontiguousarray(allowed)
        return table.view(np.uint8) if table.dtype == np.bool_ else (
            np.ascontiguousarray(table, dtype=np.uint8)
        )

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
        status = self._lib.repro_msbfs_bitset(
            np.ascontiguousarray(in_indptr, dtype=np.int64),
            np.ascontiguousarray(in_neighbors, dtype=np.int32),
            np.ascontiguousarray(in_labels, dtype=np.int16),
            int(num_vertices),
            np.ascontiguousarray(sources, dtype=np.int64),
            len(sources),
            self._allowed_u8(allowed),
            int(allowed.shape[1]),
            dist,  # written in place: must already be C-contiguous int32
            int(max_level),
        )
        if status != 0:  # pragma: no cover - allocation failure only
            raise MemoryError("repro_msbfs_bitset: allocation failed")

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
    ) -> bool:
        status = self._lib.repro_msbfs_sparse(
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(neighbors, dtype=np.int32),
            np.ascontiguousarray(edge_labels, dtype=np.int16),
            int(num_vertices),
            np.ascontiguousarray(sources, dtype=np.int64),
            len(sources),
            self._allowed_u8(allowed),
            int(allowed.shape[1]),
            dist,
            int(max_level),
        )
        if status != 0:  # pragma: no cover - allocation failure only
            raise MemoryError("repro_msbfs_sparse: allocation failed")
        return True

    def one_removed_pass(
        self, dist: np.ndarray, prev_rows: np.ndarray, sub_rows: np.ndarray
    ) -> np.ndarray:
        wave_rows, n = dist.shape
        out = np.empty((wave_rows, n), dtype=np.uint8)
        status = self._lib.repro_one_removed(
            np.ascontiguousarray(dist, dtype=np.int32),
            wave_rows,
            n,
            np.ascontiguousarray(prev_rows, dtype=np.int32),
            np.ascontiguousarray(sub_rows, dtype=np.int64),
            int(sub_rows.shape[1]),
            out,
        )
        if status != 0:  # pragma: no cover - allocation failure only
            raise MemoryError("repro_one_removed: allocation failed")
        return out.view(bool)

    def aux_dijkstra(
        self,
        weights: np.ndarray,
        ds: np.ndarray,
        dt: np.ndarray,
        best: float,
    ) -> float:
        value = self._lib.repro_aux_dijkstra(
            np.ascontiguousarray(weights, dtype=np.float64),
            np.ascontiguousarray(ds, dtype=np.float64),
            np.ascontiguousarray(dt, dtype=np.float64),
            len(ds),
            float(best),
        )
        if value < 0.0:  # pragma: no cover - allocation failure only
            raise MemoryError("repro_aux_dijkstra: allocation failed")
        return float(value)
