"""Index-store benchmarks: cold start, file sizes, shared pages.

The claims of the mmap store, measured:

* **Cold start** (open file → first query answered): opening parses a
  small JSON header and maps the sections lazily.
* **Size**: the file is the raw section bytes plus a header and 64-byte
  alignment padding.
* **Shared pages**: two processes mapping the same store file add almost
  no incremental RSS, because the page cache backs both mappings — far
  less than the private copy of the tables an eager load would make.
* **Bit-identity**: opened and in-memory indexes answer every workload
  query identically.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro import load_index, save_index
from repro.obs.trace import span

from conftest import BENCH_SCALE, BENCH_SEED, run_queries


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, biogrid_powcov):
    path = str(tmp_path_factory.mktemp("index-store") / "index.repro")
    save_index(biogrid_powcov, path)
    return path


def cold_start(path, graph, query):
    """Open ``path`` and answer one query — the serving cold-start path."""
    with span("bench.store_open", path=os.path.basename(path)):
        oracle = load_index(path, graph)
    with span("bench.first_query"):
        return oracle.query(query.source, query.target, query.label_mask)


def test_cold_start_mmap(benchmark, store_path, biogrid, biogrid_workload):
    query = biogrid_workload.queries[0]
    benchmark(cold_start, store_path, biogrid, query)


def test_warm_queries_mapped(benchmark, store_path, biogrid,
                             biogrid_workload):
    oracle = load_index(store_path, biogrid)
    with span("bench.warm_query"):
        benchmark(run_queries, oracle, biogrid_workload)


def test_warm_queries_in_memory(benchmark, biogrid_powcov, biogrid_workload):
    benchmark(run_queries, biogrid_powcov, biogrid_workload)


def test_size_ratios(store_path, biogrid_powcov):
    size = os.path.getsize(store_path)
    columns = sum(getattr(table, name).nbytes
                  for table in biogrid_powcov.tables()
                  for name in ("key", "dist", "mask"))
    print(f"\nsizes: mmap {size}B for {columns}B of table columns "
          f"({size / columns:.3f}x)")
    # Header, landmarks and alignment padding stay within a few kB.
    assert columns <= size <= columns + 4096


def test_answers_identical_across_backends(store_path, biogrid,
                                           biogrid_powcov, biogrid_workload):
    oracle = load_index(store_path, biogrid)
    for q in biogrid_workload.queries:
        reference = biogrid_powcov.query(q.source, q.target, q.label_mask)
        got = oracle.query(q.source, q.target, q.label_mask)
        assert got == reference, (q, got, reference)


_CHILD = r"""
import sys

sys.path.insert(0, sys.argv[1])

def private_rss_kb():
    # RssAnon: resident memory no other process can share (file-backed
    # pages of a mapping are page-cache pages, shared by every mapper).
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("RssAnon:"):
                return int(line.split()[1])
    raise SystemExit("RssAnon not found")

import numpy as np

from repro import load_index
from repro.graph.datasets import load_dataset
from repro.store import index_store  # noqa: F401 - imported before measuring

graph, _ = load_dataset("biogrid-sim", scale=float(sys.argv[3]),
                        seed=int(sys.argv[4]))
before = private_rss_kb()
oracle = load_index(sys.argv[2], graph)
if sys.argv[5] == "copy":
    # What an eager load holds: a private copy of every column.
    columns = [np.array(getattr(table, name))
               for table in oracle.tables() for name in ("key", "dist", "mask")]
full_mask = (1 << graph.num_labels) - 1
oracle.query(0, graph.num_vertices - 1, full_mask)
print(private_rss_kb() - before)
"""


def _child_rss_delta_kb(path, mode="mapped"):
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, src_dir, path,
         str(BENCH_SCALE), str(BENCH_SEED), mode],
        capture_output=True, text=True, check=True,
    )
    return int(result.stdout.strip())


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs Linux procfs for RssAnon")
def test_two_processes_share_pages(store_path):
    """Mapping the same store from two processes is nearly free in RSS.

    Each child measures the private (anonymous) RSS it gains from opening
    the index and answering one query.  The mapped store's pages live in
    the page cache, shared by every process that maps the file; a child
    that copies the columns, as an eager load would, holds every table
    privately, so the mapped gain must be far smaller.
    """
    mapped = [_child_rss_delta_kb(store_path) for _ in range(2)]
    eager = _child_rss_delta_kb(store_path, mode="copy")
    print(f"\nincremental private RSS: mapped {mapped} kB per process, "
          f"private copy {eager} kB")
    for delta in mapped:
        assert delta < max(eager, 512), (
            f"mapped process gained {delta} kB RSS vs {eager} kB for a copy"
        )
