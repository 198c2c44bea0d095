"""Dispatch ``python -m repro.analysis <lint|flow> [args...]``.

``python -m repro.analysis.lint`` keeps working for the AST rules; this
entry point adds the subcommand form the CI jobs and docs use:

* ``python -m repro.analysis lint [paths...]`` — REPRO000-REPRO008
* ``python -m repro.analysis flow [paths...]`` — REPRO009-REPRO011, REPRO013
"""

from __future__ import annotations

import sys
from collections.abc import Sequence


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if args else 2
    command, rest = args[0], args[1:]
    if command == "lint":
        from .lint import main as lint_main

        return lint_main(rest)
    if command == "flow":
        from .flow import main as flow_main

        return flow_main(rest)
    print(f"unknown command {command!r}; expected 'lint' or 'flow'", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
