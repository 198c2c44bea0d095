"""repro.engine — the batch-native query-execution layer.

The scalar ``oracle.query(s, t, mask)`` path answers one triple at a
time; serving-side traffic arrives in batches and streams whose masks
repeat heavily.  This package turns any oracle into a batch server:

* :mod:`repro.engine.plan` groups a batch by constraint mask;
* :mod:`repro.engine.executors` evaluates each mask group vectorized
  (PowCov: one packed subset-sweep per group; ChromLand: one usable
  filter + auxiliary adjacency per mask, closed into one min-plus per
  group once the mask has been asked ``k_usable`` queries; naive:
  stacked gathers;
  everything else: the trivial scalar-loop adapter);
* :mod:`repro.engine.session` adds the LRU answer cache and the per-mask
  plan cache, and counts each engine event once, in the session's
  ``stats.counters`` and in the registry's ``engine.*`` counters.

The engine's invariant — asserted by ``tests/test_engine.py`` — is that
batch answers are **bit-identical** to the scalar loop for every oracle,
with caches on or off.  Quickstart::

    from repro.engine import QuerySession

    session = QuerySession(oracle, cache_size=8192)
    answers = session.run([(s1, t1, mask1), (s2, t2, mask2)])
    print(session.stats.counters)
"""

from __future__ import annotations

from .config import EngineConfig, resolve_engine
from .executors import (
    ChromLandExecutor,
    NaiveExecutor,
    OracleExecutor,
    PowCovExecutor,
    ScalarLoopExecutor,
    executor_for,
)
from .plan import ExecutionPlan, MaskGroup, plan_batch
from .session import QuerySession, execute_batch

__all__ = [
    "EngineConfig",
    "resolve_engine",
    "OracleExecutor",
    "ScalarLoopExecutor",
    "PowCovExecutor",
    "ChromLandExecutor",
    "NaiveExecutor",
    "executor_for",
    "ExecutionPlan",
    "MaskGroup",
    "plan_batch",
    "QuerySession",
    "execute_batch",
]
