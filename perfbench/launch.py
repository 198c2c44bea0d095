"""Traced server launcher: ``launch.py --trace-out FILE -- <serve args>``.

Installs the layer wrappers of :mod:`trace_layers`, then calls
``repro.serve.__main__.main`` with the given arguments, exactly as
``python -m repro.serve`` would, and writes the folded span table to
``FILE`` when ``main`` returns (the server returns on SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import trace_layers  # noqa: E402


def run(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: launch.py --trace-out FILE -- <serve args>", file=sys.stderr)
        return 2
    out = Path(argv[1])
    import repro.serve.__main__ as serve_main

    tracer = trace_layers.Tracer()
    trace_layers.install(tracer)
    try:
        return serve_main.main(argv[3:])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
