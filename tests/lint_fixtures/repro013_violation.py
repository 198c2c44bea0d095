# lint-module: repro/perf/scratch.py
"""Fixture: writes into read-only memmap / PowCovTable views."""

from __future__ import annotations

import numpy as np

from repro.core.powcov.table import PowCovTable


def _write_readonly_map(path: str) -> "np.ndarray":
    view = np.memmap(path, mode="r", dtype=np.float64, shape=(8,))
    view[0] = 1.0  # line 13: mode="r" mapping is read-only
    return view


def _write_table_column(key: object, payload: object, bits: object) -> None:
    table = PowCovTable(key, payload, bits, 4, 16)
    table.dist[0] = 0.0  # line 19: mmap-backed column is read-only
