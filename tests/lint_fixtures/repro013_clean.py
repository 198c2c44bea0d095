# lint-module: repro/perf/scratch.py
"""Fixture: read-only maps read, writable maps escaped, copies mutated."""

from __future__ import annotations

import numpy as np

from repro.core.powcov.table import PowCovTable


def _read_only_probe(path: str) -> "np.ndarray":
    view = np.memmap(path, mode="r", dtype=np.float64, shape=(8,))
    _ = view[0]  # reads from a read-only map are fine
    return view  # the handle escapes to the caller: no leak


def _escaped_map(path: str) -> "np.ndarray":
    return np.memmap(path, mode="w+", dtype=np.float64, shape=(8,))


def _mutate_a_copy(key: object, payload: object, bits: object) -> "np.ndarray":
    table = PowCovTable(key, payload, bits, 4, 16)
    scratch = table.dist.copy()  # a private copy is writable
    scratch[0] = 0.0
    return scratch
