"""Static-analysis and runtime-audit tooling for the reproduction.

Correctness of the performance-critical layers rests on conventions that
plain tests cannot see being broken in *new* code: CSR arrays must stay
immutable outside the graph substrate, label sets must travel as masks
built by :mod:`repro.graph.labelsets`, hot paths must stay deterministic
and vectorized.  This package machine-checks those conventions:

* :mod:`repro.analysis.lint` — project-specific AST lint rules
  (REPRO000–REPRO008) with a CLI (``python -m repro.analysis lint``);
* :mod:`repro.analysis.flow` — flow-sensitive abstract interpretation
  (REPRO009–REPRO011, REPRO013): dtype/width tracking, mask/vertex/distance
  unit domains, and memmap lifecycle checking, with baseline,
  per-file cache and SARIF output (``python -m repro.analysis flow``);
* :mod:`repro.analysis.audit` — runtime invariant auditors for the graph
  substrate and both paper indexes (``audit_graph`` / ``audit_powcov`` /
  ``audit_chromland``), exposed through ``--selfcheck`` on the eval CLI
  and the ``EngineConfig.audit`` debug flag.

See ``docs/DEVELOPING.md`` for the rule catalog and local usage.
"""

from __future__ import annotations

from typing import Any

from .audit import (
    AuditError,
    AuditViolation,
    audit_chromland,
    audit_graph,
    audit_oracle,
    audit_powcov,
    format_report,
    run_selfcheck,
)

__all__ = [
    "AuditError",
    "AuditViolation",
    "audit_chromland",
    "audit_graph",
    "audit_oracle",
    "audit_powcov",
    "format_report",
    "run_selfcheck",
    "RULES",
    "LintFinding",
    "lint_file",
    "lint_paths",
    "FLOW_RULES",
    "analyze_paths",
    "analyze_source",
    "build_cfg",
]

_LINT_EXPORTS = ("RULES", "LintFinding", "lint_file", "lint_paths")
_FLOW_EXPORTS = ("FLOW_RULES", "analyze_paths", "analyze_source", "build_cfg")


def __getattr__(name: str) -> Any:
    # The lint/flow modules are loaded lazily so that ``python -m
    # repro.analysis.lint`` does not import them twice (runpy would warn).
    if name in _LINT_EXPORTS:
        from . import lint

        return getattr(lint, name)
    if name in _FLOW_EXPORTS:
        from . import flow

        return getattr(flow, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
