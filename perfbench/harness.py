"""Shared plumbing for the repository benchmark.

Everything here is workload-agnostic: locating the checkout, preparing the
environment the program under test runs in, spawning and stopping the
``python -m repro.serve`` server, a minimal keep-alive HTTP client that
sends pre-encoded requests, CPU and memory readers over ``/proc``, and
percentiles taken from sorted raw samples.
"""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK = ROOT / ".perfbench_work"
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, server failed to start)."""


def program_env() -> dict[str, str]:
    """Environment for processes running the program under test.

    The compiled-kernel cache and temporary files stay inside the
    checkout; every other setting is the library's own default.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def prepare_process() -> None:
    """Make ``repro`` importable in this process, with the same settings."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"the program is missing: no {SRC / 'repro'}")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    (WORK / "kernels").mkdir(parents=True, exist_ok=True)
    os.environ.update(
        {k: v for k, v in program_env().items() if k != "PYTHONPATH"}
    )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of raw samples (no interpolation)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def upper_quartile(values: list[float]) -> float:
    """The statistic for CPU-bound repeated work: the nearest-rank p75.

    The host this benchmark was tuned on alternates between a fast and a
    slow speed state in phases of 25-35 s, slow about four fifths of the
    time.  A median read 30% lower whenever a run fell mostly inside a
    fast phase; the upper quartile reads the prevailing state unless
    three quarters of the run was fast.
    """
    return percentile(values, 75)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of every thread of ``pid`` (clock-tick resolution)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_run_ns(pid: int) -> int:
    """Nanoseconds on CPU summed over the live threads of ``pid``.

    Finer than :func:`proc_cpu_seconds`, which counts clock ticks.  The
    server's threads (the main thread and the batch workers) live as long as
    the process, so none of its CPU is missed.
    """
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class HostSampler:
    """Host steal share and a process's CPU share over one window."""

    def __init__(self, server_pid: int | None = None) -> None:
        self.server_pid = server_pid
        self._start = self._snapshot()

    def _snapshot(self) -> tuple[list[int], float, float, float | None]:
        with open("/proc/stat") as fh:
            cpu = [int(x) for x in fh.readline().split()[1:]]
        server = (
            proc_cpu_seconds(self.server_pid)
            if self.server_pid is not None
            else None
        )
        return cpu, time.perf_counter(), time.process_time(), server

    def finish(self) -> dict[str, float]:
        cpu1, wall1, own1, server1 = self._snapshot()
        cpu0, wall0, own0, server0 = self._start
        delta = [b - a for a, b in zip(cpu0, cpu1)]
        total = sum(delta[:8]) or 1  # user..steal; guest is inside user
        wall = max(wall1 - wall0, 1e-9)
        out = {
            "steal_share": delta[7] / total if len(delta) > 7 else 0.0,
            "client_cpu_share": (own1 - own0) / wall,
        }
        if server0 is not None and server1 is not None:
            out["server_cpu_share"] = (server1 - server0) / wall
        return out


def environment() -> dict[str, object]:
    """The run's fixed noise sources, recorded beside its metrics."""
    import numpy

    from repro.core.powcov import get_default_builder
    from repro.kernels import kernel_name

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": kernel_name(),
        "builder": get_default_builder(),
    }


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------
class Server:
    """One ``python -m repro.serve`` process on an ephemeral port.

    With ``trace_out`` set the server is started through the benchmark's
    launcher, which installs the layer wrappers before calling the same
    ``main`` and writes the span table there at shutdown.
    """

    def __init__(self, args: list[str], trace_out: Path | None = None) -> None:
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        else:
            cmd = [
                sys.executable, str(BENCH_DIR / "launch.py"),
                "--trace-out", str(trace_out), "--", *args,
            ]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [*cmd, "--port", "0"],
            cwd=ROOT,
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: list[str] = []
        self._port: int | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line.rstrip("\n"))
            if self._port is None and line.startswith("serving graph"):
                self._port = int(line.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_port(self, timeout: float = 120.0) -> int:
        if not self._ready.wait(timeout) or self._port is None:
            self.stop()
            tail = "\n".join(self.output[-20:])
            raise BenchError(f"server did not start:\n{tail}")
        return self._port

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT (the CLI's clean shutdown), then kill; returns the code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        self._reader.join(timeout)
        return self.proc.returncode


@dataclass
class Boot:
    """One server start, timed from spawn to the first correct answers."""

    wall_s: float
    #: Server CPU over the same span, summed over its threads.
    cpu_s: float
    #: Server CPU from its listening socket being up to the answers: the
    #: registry's first touch of every oracle (ns resolution).
    first_touch_ms: float


def boot(args: list[str], probes: dict[str, tuple[bytes, float | None]],
         result: "Result", trace_out: Path | None = None) -> tuple[Server, Boot]:
    """Start the server and time it to the first correct answer of each
    probe; return it still running.

    ``probes`` maps an oracle to a pre-encoded single query and its
    expected wire answer.
    """
    server = Server(args, trace_out)
    try:
        conn = Connection(server.wait_port())
        listening_ns = proc_run_ns(server.pid)
        for oracle, (raw, expected) in probes.items():
            result.attempted += 1
            status, body = conn.request(raw)
            if status != 200 or json.loads(body)["distance"] != expected:
                result.fail(f"set-up probe on {oracle}: {status} {body[:200]!r}")
        wall = time.perf_counter() - server.spawned
        answered_ns = proc_run_ns(server.pid)
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, Boot(wall, answered_ns / 1e9, (answered_ns - listening_ns) / 1e6)


def boots(args: list[str], probes: dict[str, tuple[bytes, float | None]],
          result: "Result", count: int) -> list[Boot]:
    """Start, time and stop the server ``count`` times."""
    timings = []
    for _ in range(count):
        server, timing = boot(args, probes, result)
        server.stop()
        timings.append(timing)
    return timings


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
def encode_post(path: str, payload: object) -> bytes:
    """A complete keep-alive POST request, encoded once up front."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive HTTP/1.1 connection over a blocking socket."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send pre-encoded request bytes; return (status, body)."""
        self.sock.sendall(raw)
        while True:
            end = self._buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._recv()
        head = self._buf[:end].decode("latin-1").split("\r\n")
        self._buf = self._buf[end + 4:]
        status = int(head[0].split(" ", 2)[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(self._buf) < length:
            self._recv()
        body, self._buf = self._buf[:length], self._buf[length:]
        return status, body

    def _recv(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def close(self) -> None:
        self.sock.close()


def wire(value: float) -> float | None:
    """A distance as the server encodes it (``inf`` is ``null``)."""
    return None if math.isinf(value) else float(value)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Result:
    """What one workload run measured."""

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)
