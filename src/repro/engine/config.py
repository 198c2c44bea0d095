"""How the evaluation harness executes queries.

``evaluate_oracle`` / ``time_oracle`` and the table regenerators above
them take an ``engine=`` argument; the eval CLI's ``--engine`` flag
builds one :class:`EngineConfig` and passes it down through the command
it runs.  ``None`` means the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EngineConfig", "resolve_engine"]


@dataclass(frozen=True)
class EngineConfig:
    """How the evaluation harness should execute queries.

    ``audit`` is a debug flag: sessions created under it run the
    :mod:`repro.analysis.audit` invariant auditors against the wrapped
    oracle (and its graph) at construction time and raise
    :class:`~repro.analysis.audit.AuditError` on any violation.  It is
    off by default — the audits re-derive distances with constrained BFS
    and are far too slow for production query serving.
    """

    enabled: bool = False
    cache_size: int = 4096
    audit: bool = False


def resolve_engine(engine: "EngineConfig | bool | None") -> EngineConfig:
    """Normalize an ``engine`` argument: None -> scalar, bool -> config."""
    if engine is None:
        return EngineConfig()
    if isinstance(engine, bool):
        return EngineConfig(enabled=engine)
    return engine
