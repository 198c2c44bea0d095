"""Performance subsystem: parallel index construction and batched kernels.

The paper's landmark indexes are embarrassingly parallel across landmarks
(one independent sweep per landmark), and their inner loops are dominated
by repeated CSR gathers that can be amortized across BFS sources.  This
package provides the three pieces that exploit both facts:

* :mod:`repro.perf.shm` — zero-copy handoff of a graph's CSR arrays to
  worker processes as regions of a graph store file (the graph is written
  at most once instead of pickled per task);
* :mod:`repro.perf.parallel` — :class:`ParallelConfig` and the chunked
  fan-out engine used by ``PowCovIndex.build(parallel=...)`` and
  ``ChromLandIndex.build(parallel=...)``, with deterministic reassembly in
  landmark order (parallel output is bit-for-bit identical to serial);
* :mod:`repro.perf.batched` — a batched multi-source constrained BFS that
  expands one combined frontier over a ``(num_sources, num_vertices)``
  distance matrix, amortizing per-level Python and CSR-gather overhead
  across sources.
"""

from __future__ import annotations

from .batched import batched_constrained_bfs, exact_workload_distances
from .parallel import (
    ParallelConfig,
    resolve_parallel,
    run_tasks,
)
from .shm import SharedGraphPack, attach_graph, share_graphs

__all__ = [
    "ParallelConfig",
    "SharedGraphPack",
    "attach_graph",
    "batched_constrained_bfs",
    "exact_workload_distances",
    "resolve_parallel",
    "run_tasks",
    "share_graphs",
]
