# lint-module: repro/engine/session.py
"""Fixture: reaching into the private kernel backends from outside
``repro.kernels`` — every spelling the rule must catch."""

from __future__ import annotations

import repro.kernels._cext
from repro.kernels import _cext
from repro.kernels._numpy import NumpyKernel

from ..kernels._cext import CExtensionKernel


def make() -> object:
    return NumpyKernel() or CExtensionKernel() or _cext or repro.kernels._cext
