"""Pluggable compiled kernels for the three hottest loops.

The paper's construction and query costs concentrate in three inner
loops — the bit-parallel MS-BFS sweep (:mod:`repro.perf.batched`), the
Theorem 2 one-removed subset sweep (:mod:`repro.core.powcov.waves`), and
the ChromLand auxiliary-graph Dijkstra (:mod:`repro.core.chromland`).
This package puts those loops behind a :class:`KernelBackend` protocol
with two interchangeable implementations:

* ``"numpy"`` — the existing pure-numpy path, moved here verbatim.  It is
  the always-available fallback and the bit-identity reference.
* ``"cext"`` — the same loops as C, compiled on demand with the system C
  compiler into a per-source-hash cached shared library and loaded via
  ``ctypes``.  Optional: needs ``cc``/``gcc``/``clang`` on ``PATH``.

All backends produce **bit-identical** results.  BFS levels are exact
integers, the Theorem 2 sweep is an integer min/compare, and the compiled
Dijkstra replays the numpy implementation's IEEE operation order (same
additions, same first-minimum argmin, same early-exit predicate), so no
tolerance is needed anywhere — the differential tests assert ``==``.

Selection
---------
``resolve_kernel(None)`` consults, in order: the process-wide default
installed by :func:`set_default_kernel` (the CLI's ``--kernel`` flag),
the ``REPRO_KERNEL`` environment variable, then ``"auto"``.  ``"auto"``
probes ``cext`` once (the probe is memoized) and falls back to
``"numpy"``.  Explicitly requesting an unavailable compiled backend
falls back to numpy with a single structured
:class:`KernelFallbackWarning` per backend name — never one per build.
"""

from __future__ import annotations

import os
import threading
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "KernelBackend",
    "KernelFallbackWarning",
    "KERNEL_CHOICES",
    "available_kernels",
    "get_default_kernel",
    "kernel_name",
    "resolve_kernel",
    "set_default_kernel",
]

#: Names accepted by ``--kernel`` / ``REPRO_KERNEL`` / ``set_default_kernel``.
KERNEL_CHOICES = ("auto", "numpy", "cext")


@runtime_checkable
class KernelBackend(Protocol):
    """The compiled-loop contract shared by every backend.

    All methods operate on the caller's CSR arrays directly (``int64``
    indptr, ``int32`` neighbors, ``int16`` edge labels) so a backend never
    needs the graph object — which is also what keeps the C signatures
    trivial.
    """

    name: str

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
        """Bit-parallel MS-BFS over the **in-arc** CSR, 64 rows per lane.

        ``allowed`` is the per-row ``(num_rows, num_labels)`` bool table;
        ``dist`` is the ``(num_rows, num_vertices)`` int32 matrix already
        seeded with 0 at each row's source (levels are written in place).
        ``max_level`` is an inclusive cap; ``-1`` means unbounded.
        """
        ...

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
        """Sparse (few-row / shared-mask) multi-source constrained BFS.

        Same conventions as :meth:`msbfs_bitset` but over the **out-arc**
        CSR.  Returns ``True`` when the backend handled the batch; the
        numpy backend returns ``False`` so the caller runs its vectorized
        frontier expansion (whose cost scales with the touched subgraph).
        """
        ...

    def one_removed_pass(
        self, dist: np.ndarray, prev_rows: np.ndarray, sub_rows: np.ndarray
    ) -> np.ndarray:
        """Vectorized Theorem 2: ``dist < min over one-removed subset rows``.

        ``sub_rows[i, j]`` indexes ``prev_rows`` (the previous wave's ring
        cache, last row = the all-``BIG`` pad); returns the bool verdict
        matrix shaped like ``dist``.
        """
        ...

    def aux_dijkstra(
        self,
        weights: np.ndarray,
        ds: np.ndarray,
        dt: np.ndarray,
        best: float,
    ) -> float:
        """Theorem 5 dense Dijkstra over the masked auxiliary adjacency.

        ``ds``/``dt`` are the endpoint legs (``inf`` = unreachable),
        ``best`` the already-computed single-landmark bound.  Must replay
        the numpy path's IEEE operation order exactly (bit-identity).
        """
        ...


class KernelFallbackWarning(UserWarning):
    """A requested compiled kernel is unavailable; numpy is used instead.

    Structured so callers can introspect programmatically: ``requested``
    (the backend name asked for), ``fallback`` (the backend used) and
    ``reason`` (the memoized probe failure).  Emitted at most once per
    requested backend name per process.
    """

    def __init__(self, requested: str, fallback: str, reason: str) -> None:
        self.requested = requested
        self.fallback = fallback
        self.reason = reason
        super().__init__(
            f"kernel backend {requested!r} is unavailable ({reason}); "
            f"falling back to {fallback!r}"
        )


_lock = threading.Lock()
#: Successfully probed backend instances, keyed by name (memoized).
_backends: dict[str, KernelBackend] = {}
#: Probe failures, keyed by name (memoized: one import/compile attempt).
_probe_failures: dict[str, str] = {}
#: Backend names a fallback warning was already emitted for.
_warned: set[str] = set()
#: Process-wide default installed by :func:`set_default_kernel`.
_default_kernel: str | None = None


def _load(name: str) -> KernelBackend | None:
    """Probe-and-memoize one backend; ``None`` records the failure reason."""
    backend = _backends.get(name)
    if backend is not None:
        return backend
    if name in _probe_failures:
        return None
    with _lock:
        backend = _backends.get(name)
        if backend is not None:
            return backend
        if name in _probe_failures:
            return None
        try:
            if name == "numpy":
                from ._numpy import NumpyKernel

                backend = NumpyKernel()
            elif name == "cext":
                from ._cext import CExtensionKernel

                backend = CExtensionKernel()
            else:  # pragma: no cover - callers validate names first
                raise ValueError(f"unknown kernel backend {name!r}")
        except Exception as exc:  # noqa: BLE001 - probe failure is data
            _probe_failures[name] = f"{type(exc).__name__}: {exc}"
            return None
        _backends[name] = backend
        return backend


def _require_numpy() -> KernelBackend:
    backend = _load("numpy")
    if backend is None:  # pragma: no cover - numpy is a hard dependency
        raise RuntimeError(
            f"the numpy kernel backend failed to load: "
            f"{_probe_failures.get('numpy')}"
        )
    return backend


def _warn_fallback(requested: str) -> None:
    """Emit the structured fallback warning, once per backend name."""
    import warnings

    with _lock:
        if requested in _warned:
            return
        _warned.add(requested)
    reason = _probe_failures.get(requested, "probe failed")
    warnings.warn(
        KernelFallbackWarning(requested, "numpy", reason), stacklevel=3
    )


def available_kernels() -> tuple[str, ...]:
    """Concrete backend names importable in this process (probes all)."""
    return tuple(
        name for name in ("numpy", "cext") if _load(name) is not None
    )


def set_default_kernel(kernel: str | None) -> None:
    """Install the process-wide default backend (the CLI's ``--kernel``).

    ``None`` restores the built-in default (``REPRO_KERNEL`` env or
    ``"auto"``).  All backends produce bit-identical output, so this only
    ever changes wall-clock time, never results.
    """
    global _default_kernel
    if kernel is not None and kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"kernel must be one of {KERNEL_CHOICES}, got {kernel!r}"
        )
    _default_kernel = kernel


def get_default_kernel() -> str:
    """The effective default backend name (may be ``"auto"``)."""
    if _default_kernel is not None:
        return _default_kernel
    env = os.environ.get("REPRO_KERNEL")
    if env:
        if env not in KERNEL_CHOICES:
            raise ValueError(
                f"REPRO_KERNEL must be one of {KERNEL_CHOICES}, got {env!r}"
            )
        return env
    return "auto"


def resolve_kernel(
    kernel: "str | KernelBackend | None" = None,
) -> KernelBackend:
    """Turn a kernel request into a concrete backend instance.

    ``None`` follows the default chain (``set_default_kernel`` →
    ``REPRO_KERNEL`` → ``"auto"``); a backend instance passes through
    untouched (the hot-path case: callers resolve once and hand the
    instance down).  ``"auto"`` silently picks ``cext`` when it compiles
    and numpy otherwise; an explicit ``"cext"`` request that cannot be
    satisfied falls back to numpy with one structured warning.
    """
    if kernel is not None and not isinstance(kernel, str):
        return kernel
    name = get_default_kernel() if kernel is None else kernel
    if name not in KERNEL_CHOICES:
        raise ValueError(f"kernel must be one of {KERNEL_CHOICES}, got {name!r}")
    if name == "numpy":
        return _require_numpy()
    if name == "auto":
        return _load("cext") or _require_numpy()
    backend = _load(name)
    if backend is not None:
        return backend
    _warn_fallback(name)
    return _require_numpy()


def kernel_name(kernel: "str | KernelBackend | None" = None) -> str:
    """The concrete backend name a request resolves to (for spans/reports)."""
    return resolve_kernel(kernel).name


def _reset_for_tests(clear_probes: bool = False) -> None:
    """Test hook: forget warnings/default (and, optionally, probe memos)."""
    global _default_kernel
    with _lock:
        _warned.clear()
        _default_kernel = None
        if clear_probes:
            _probe_failures.clear()
            _backends.pop("cext", None)
