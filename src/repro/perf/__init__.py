"""Performance subsystem: parallel index construction and batched kernels.

The paper's landmark indexes are embarrassingly parallel across landmarks
(one independent sweep per landmark), and their inner loops are dominated
by repeated CSR gathers that can be amortized across BFS sources.  This
package provides the two pieces that exploit both facts:

* :mod:`repro.perf.parallel` — the chunked thread fan-out used by
  ``PowCovIndex.build(parallel=n)`` and ``ChromLandIndex.build(parallel=n)``,
  with deterministic reassembly in landmark order (parallel output is
  bit-for-bit identical to serial);
* :mod:`repro.perf.batched` — a batched multi-source constrained BFS that
  runs one kernel sweep over a ``(num_sources, num_vertices)`` distance
  matrix, amortizing per-level Python and CSR-gather overhead across
  sources.
"""

from __future__ import annotations

from .batched import batched_constrained_bfs, exact_workload_distances
from .parallel import run_tasks, worker_count

__all__ = [
    "batched_constrained_bfs",
    "exact_workload_distances",
    "run_tasks",
    "worker_count",
]
