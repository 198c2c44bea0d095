"""Project-specific AST lint rules for the reproduction code base.

The generic linters (ruff, mypy) cannot see the package's *semantic*
conventions: which arrays are immutable, which module owns bitmask
construction, which loops are allowed to be scalar.  This module encodes
those conventions as ten mechanical rules over the Python AST (the
flow-sensitive rules REPRO009-REPRO011 and REPRO013 share this catalog but
live in :mod:`repro.analysis.flow`):

``REPRO000``
    No bare ``# noqa``: suppression comments must name the rule code(s)
    they silence, so a new violation appearing on an already-waived line
    still surfaces.
``REPRO001``
    CSR arrays (``indptr`` / ``neighbors`` / ``edge_labels``) are
    immutable outside the ``repro.graph`` package (``labeled_graph.py``
    builds them, ``delta.py`` adopts them copy-on-write): no attribute
    stores, no element stores, no ``setflags`` calls, no in-place ufuncs
    (``out=`` / ``np.<ufunc>.at``) targeting them.
``REPRO002``
    Label masks are built only via :mod:`repro.graph.labelsets` helpers:
    no raw ``1 << label`` with a non-literal shift and no
    ``np.left_shift`` outside that module.  (Literal shifts such as
    ``1 << 64`` in hashing code are not label masks and stay legal.)
``REPRO003``
    No unseeded randomness in ``core/``, ``engine/`` or ``perf/``: the
    module-level ``random.*`` functions, ``np.random.seed`` and
    argument-less ``np.random.default_rng()`` / ``random.Random()`` are
    all banned — index builds must be reproducible from explicit seeds.
``REPRO004``
    ``engine/executors.py`` must stay vectorized: loops that iterate the
    query columns of a :class:`~repro.engine.plan.MaskGroup` and
    per-query ``oracle.query`` calls inside loops are confined to the
    designated fallback (``ScalarLoopExecutor``).  Per-*row* reduction
    loops (e.g. the median estimator) do not match the rule.
``REPRO005``
    Public functions and methods in ``core/`` and ``engine/`` carry full
    annotations (every parameter and the return type).
``REPRO006``
    No ``print`` in library code — the engine's instrumentation layer and
    the eval renderers return strings; only the CLI entry point
    (``eval/cli.py``) and ``if __name__ == "__main__"`` blocks print.
``REPRO007``
    No ``time.time()`` in library code: it is wall-clock epoch time, not
    a monotonic timer — measurements jump on NTP adjustments.  Use
    ``time.perf_counter()`` for durations and ``time.process_time()`` (or,
    per thread as :mod:`repro.obs.trace` spans use it,
    ``time.thread_time()``) for CPU time.  ``from time import time`` is flagged
    at the import.
``REPRO008``
    Graph mutations go through the delta API.  The version-lineage
    attributes of :class:`~repro.graph.labeled_graph.EdgeLabeledGraph`
    (``version`` / ``parent_fingerprint`` / ``applied_delta``) are written
    only by :func:`repro.graph.delta.apply_delta` — outside ``repro.graph``
    no attribute store, ``setattr`` or ``object.__setattr__`` may target
    them.  Together with REPRO001 this makes the mutation surface exactly
    ``GraphDelta`` + ``apply_delta`` / ``apply_edges``: hand-editing a
    graph in place would silently desynchronize every fingerprint-keyed
    cache (sessions, answer caches, the REPROIDX store).
``REPRO014``
    The private kernel backends (``repro.kernels._numpy`` /
    ``._cext``) are imported only inside ``repro.kernels`` itself.
    Everyone else goes through :func:`repro.kernels.resolve_kernel` — a
    direct ``import repro.kernels._cext`` bypasses the memoized
    availability probe and crashes the process when no C compiler is
    present instead of falling back to numpy.

Suppression: a trailing ``# noqa: REPRO00X`` comment silences the named
rule(s) on that line.  A *bare* ``# noqa`` suppresses nothing and is itself
a finding (``REPRO000``): blanket suppression is how a second, unrelated
violation on the same line slips through review.  Fixture files (and
tests) can pin the module identity the rules key on with a leading
``# lint-module: repro/<path>.py`` comment.

Run it as ``python -m repro.analysis.lint [paths...]`` (defaults to
``src/repro``); exits non-zero iff findings remain.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "RULES",
    "AST_RULES",
    "FLOW_RULE_IDS",
    "LintFinding",
    "lint_file",
    "lint_source",
    "lint_paths",
    "main",
]

#: Rule id -> one-line summary (the full rationale lives in docs/DEVELOPING.md).
#: REPRO000-008 and REPRO014 are single-pass AST rules checked here;
#: REPRO009-011 and REPRO013 are flow-sensitive and live in
#: :mod:`repro.analysis.flow` (same catalog so ``--list-rules``, noqa codes
#: and SARIF share one namespace).
RULES: dict[str, str] = {
    "REPRO000": "bare '# noqa' is forbidden; name the rule code(s) to suppress",
    "REPRO001": "CSR arrays are immutable outside repro.graph",
    "REPRO002": "label masks are built via repro.graph.labelsets helpers only",
    "REPRO003": "no unseeded randomness in core/, engine/ or perf/",
    "REPRO004": "no per-query scalar loops in engine/executors.py "
    "outside ScalarLoopExecutor",
    "REPRO005": "public functions in core/ and engine/ carry full annotations",
    "REPRO006": "no print in library code (use instrumentation/renderers)",
    "REPRO007": "no wall-clock time.time() in library code; use "
    "time.perf_counter() / time.process_time()",
    "REPRO008": "graph version lineage is written only by the delta API "
    "(repro.graph); mutate via apply_delta / apply_edges",
    "REPRO009": "no silent dtype narrowing, shift overflow or cross-width "
    "distance comparisons (flow-sensitive; repro.analysis.flow)",
    "REPRO010": "no arithmetic mixing mask / vertex-id / distance / "
    "landmark-index unit domains (flow-sensitive)",
    "REPRO011": "call arguments carry the unit domain the parameter expects "
    "(flow-sensitive)",
    "REPRO013": "read-only array views (memmap mode='r', PowCovTable "
    "columns, CSR accessors) are never written (flow-sensitive)",
    "REPRO014": "private repro.kernels backends are imported only inside "
    "repro.kernels; go through resolve_kernel",
}

#: The rules this module's single-pass AST visitor implements.
AST_RULES = frozenset(
    {"REPRO000", "REPRO001", "REPRO002", "REPRO003", "REPRO004", "REPRO005",
     "REPRO006", "REPRO007", "REPRO008", "REPRO014"}
)
#: The flow-sensitive rules implemented by :mod:`repro.analysis.flow`.
FLOW_RULE_IDS = frozenset({"REPRO009", "REPRO010", "REPRO011", "REPRO013"})

#: The immutable CSR attribute names of ``EdgeLabeledGraph``.
_CSR_ATTRS = frozenset({"indptr", "neighbors", "edge_labels"})
#: Version-lineage attributes only the delta API may write (REPRO008).
_LINEAGE_ATTRS = frozenset({"version", "parent_fingerprint", "applied_delta"})
#: Package subtree that owns graph storage and the delta/mutation API.
_GRAPH_OWNER_PREFIX = "graph/"
#: Module that owns bitmask construction.
_MASK_OWNER = "graph/labelsets.py"
#: Package subtrees whose determinism REPRO003 guards.
_DETERMINISTIC_PREFIXES = ("core/", "engine/", "perf/")
#: Package subtrees whose public API REPRO005 checks.
_ANNOTATED_PREFIXES = ("core/", "engine/")
#: The one executors.py class allowed to loop per query.
_SCALAR_FALLBACK_CLASS = "ScalarLoopExecutor"
#: Modules where ``print`` is the job (CLI entry points).
_PRINT_ALLOWED = (
    "eval/cli.py",
    "analysis/lint.py",
    "analysis/flow.py",
    "analysis/__main__.py",
    "serve/__main__.py",
    "serve/loadgen.py",
)
#: Package subtree that owns the private kernel backends (REPRO014).
_KERNEL_OWNER_PREFIX = "kernels/"
#: A dotted module path reaching into a private kernel backend, in both
#: absolute (``repro.kernels._cext``) and relative (``..kernels._cext``)
#: spellings.
_KERNEL_PRIVATE_RE = re.compile(r"(?:^|\.)kernels\._\w+")

_LINT_MODULE_RE = re.compile(r"^#\s*lint-module:\s*(\S+)\s*$", re.MULTILINE)
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _module_key(path: Path, source: str) -> str:
    """Package-relative posix path the rules key on.

    A leading ``# lint-module: repro/engine/executors.py`` comment (first
    kilobyte of the file) pins the identity explicitly — that is how the
    fixture corpus under ``tests/lint_fixtures/`` impersonates library
    modules.  Otherwise the part of ``path`` after the last ``repro``
    component is used, so both ``src/repro/core/exact.py`` and an
    installed ``.../site-packages/repro/core/exact.py`` resolve to
    ``core/exact.py``.
    """
    pinned = _LINT_MODULE_RE.search(source[:1024])
    if pinned:
        key = pinned.group(1)
        return key.removeprefix("repro/")
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1 :])
    return path.name


def _scan_noqa(source: str) -> tuple[dict[int, frozenset[str]], dict[int, int]]:
    """Scan noqa comments: (line -> named codes, bare-noqa line -> column).

    A bare ``# noqa`` (no codes) suppresses *nothing* — it is returned
    separately so :func:`lint_source` can flag it as REPRO000.  Blanket
    suppression was removed because a line with one accepted violation
    would silently absorb any new rule that later starts matching it.
    """
    suppressed: dict[int, frozenset[str]] = {}
    bare: dict[int, int] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if not match:
                continue
            codes = match.group("codes")
            if codes is None:
                bare.setdefault(token.start[0], token.start[1] + 1)
            else:
                ids = frozenset(
                    code.strip().upper() for code in codes.split(",") if code.strip()
                )
                previous = suppressed.get(token.start[0], frozenset())
                suppressed[token.start[0]] = previous | ids
    except tokenize.TokenError:  # pragma: no cover - ast.parse fails first
        pass
    return suppressed, bare


def _noqa_lines(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> explicitly named suppressed rule ids."""
    return _scan_noqa(source)[0]


def _is_csr_attribute(node: ast.expr) -> bool:
    """True for ``<anything>.indptr`` / ``.neighbors`` / ``.edge_labels``."""
    return isinstance(node, ast.Attribute) and node.attr in _CSR_ATTRS


def _csr_target(node: ast.expr) -> ast.expr | None:
    """The offending expression if ``node`` stores into a CSR array."""
    if _is_csr_attribute(node):
        return node
    if isinstance(node, ast.Subscript) and _is_csr_attribute(node.value):
        return node
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            hit = _csr_target(element)
            if hit is not None:
                return hit
    if isinstance(node, ast.Starred):
        return _csr_target(node.value)
    return None


def _is_np_random(node: ast.expr) -> bool:
    """True for ``np.random`` / ``numpy.random`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


class _Visitor(ast.NodeVisitor):
    """One-pass rule evaluation over a module's AST."""

    def __init__(self, module: str, path: str):
        self.module = module
        self.path = path
        self.findings: list[LintFinding] = []
        self._class_stack: list[str] = []
        self._loop_depth = 0
        self._main_guard_depth = 0
        self._function_depth = 0
        # Rule applicability, resolved once per file.
        self.check_csr = not module.startswith(_GRAPH_OWNER_PREFIX)
        self.check_lineage = not module.startswith(_GRAPH_OWNER_PREFIX)
        self.check_masks = module != _MASK_OWNER
        self.check_random = module.startswith(_DETERMINISTIC_PREFIXES)
        self.check_loops = module == "engine/executors.py"
        self.check_annotations = module.startswith(_ANNOTATED_PREFIXES)
        self.check_print = module not in _PRINT_ALLOWED
        self.check_kernel_imports = not module.startswith(_KERNEL_OWNER_PREFIX)

    # -- plumbing ------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            LintFinding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    @staticmethod
    def _is_main_guard(node: ast.If) -> bool:
        test = node.test
        return (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__"
        )

    def visit_If(self, node: ast.If) -> None:
        if self._is_main_guard(node):
            self._main_guard_depth += 1
            self.generic_visit(node)
            self._main_guard_depth -= 1
        else:
            self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- REPRO001: CSR immutability ------------------------------------
    def _check_csr_store(self, target: ast.expr) -> None:
        hit = _csr_target(target)
        if hit is not None:
            self._flag(
                hit,
                "REPRO001",
                "mutation of a CSR array outside repro.graph "
                "(EdgeLabeledGraph storage is immutable)",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if self.check_csr:
                self._check_csr_store(target)
            self._check_lineage_store(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            if self.check_csr:
                self._check_csr_store(node.target)
            self._check_lineage_store(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.check_csr:
            self._check_csr_store(node.target)
        self._check_lineage_store(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if self.check_csr:
                self._check_csr_store(target)
            self._check_lineage_store(target)
        self.generic_visit(node)

    # -- REPRO008: version lineage is the delta API's ------------------
    def _check_lineage_store(self, target: ast.expr) -> None:
        if not self.check_lineage:
            return
        hit = self._lineage_target(target)
        if hit is not None:
            self._flag(
                hit,
                "REPRO008",
                f"write to graph lineage attribute '.{hit.attr}' outside "
                "repro.graph; mutate via apply_delta / apply_edges",
            )

    @classmethod
    def _lineage_target(cls, node: ast.expr) -> ast.Attribute | None:
        if isinstance(node, ast.Attribute) and node.attr in _LINEAGE_ATTRS:
            return node
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                hit = cls._lineage_target(element)
                if hit is not None:
                    return hit
        if isinstance(node, ast.Starred):
            return cls._lineage_target(node.value)
        return None

    def _check_lineage_setattr(self, node: ast.Call, func: ast.expr) -> None:
        """``setattr(g, 'version', ...)`` / ``object.__setattr__`` bypasses."""
        if not self.check_lineage:
            return
        is_setattr = isinstance(func, ast.Name) and func.id == "setattr"
        is_dunder = isinstance(func, ast.Attribute) and func.attr == "__setattr__"
        if not (is_setattr or is_dunder):
            return
        name_arg = node.args[1] if len(node.args) >= 2 else None
        if (
            isinstance(name_arg, ast.Constant)
            and isinstance(name_arg.value, str)
            and name_arg.value in _LINEAGE_ATTRS
        ):
            self._flag(
                node,
                "REPRO008",
                f"setattr write to graph lineage attribute "
                f"'{name_arg.value}' outside repro.graph; mutate via "
                "apply_delta / apply_edges",
            )

    # -- REPRO002: mask construction -----------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            self.check_masks
            and isinstance(node.op, ast.LShift)
            and isinstance(node.left, ast.Constant)
            and node.left.value == 1
            and not isinstance(node.right, ast.Constant)
        ):
            self._flag(
                node,
                "REPRO002",
                "raw '1 << label' mask construction; use "
                "repro.graph.labelsets.label_bit / mask_from_labels",
            )
        self.generic_visit(node)

    # -- calls: several rules meet here --------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # REPRO001: .setflags on CSR arrays, out=/ufunc.at in-place targets.
        if self.check_csr:
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "setflags"
                and _is_csr_attribute(func.value)
            ):
                self._flag(
                    func,
                    "REPRO001",
                    "setflags on a CSR array outside repro.graph",
                )
            for keyword in node.keywords:
                if keyword.arg == "out" and _csr_target(keyword.value) is not None:
                    self._flag(
                        keyword.value,
                        "REPRO001",
                        "in-place 'out=' write into a CSR array",
                    )
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("at", "put", "copyto", "place", "putmask")
                and node.args
                and _csr_target(node.args[0]) is not None
            ):
                self._flag(
                    node.args[0],
                    "REPRO001",
                    f"in-place '{func.attr}' write into a CSR array",
                )
        # REPRO002: vectorized shifts outside the mask-owning module.
        if (
            self.check_masks
            and isinstance(func, ast.Attribute)
            and func.attr in ("left_shift", "bitwise_left_shift")
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            self._flag(
                node,
                "REPRO002",
                "np.left_shift mask construction; use "
                "repro.graph.labelsets.np_label_bits",
            )
        # REPRO003: unseeded randomness.
        if self.check_random:
            self._check_random_call(node, func)
        # REPRO008: lineage writes smuggled through setattr.
        self._check_lineage_setattr(node, func)
        # REPRO004: per-query oracle.query inside a loop.
        if (
            self.check_loops
            and self._loop_depth > 0
            and self._current_class() != _SCALAR_FALLBACK_CLASS
            and isinstance(func, ast.Attribute)
            and func.attr == "query"
        ):
            self._flag(
                node,
                "REPRO004",
                "per-query oracle.query call in a loop outside the "
                "designated ScalarLoopExecutor fallback",
            )
        # REPRO006: print in library code.
        if (
            self.check_print
            and self._main_guard_depth == 0
            and isinstance(func, ast.Name)
            and func.id == "print"
        ):
            self._flag(
                node,
                "REPRO006",
                "print in library code; return a string or use "
                "repro.engine.instrument",
            )
        # REPRO007: wall-clock epoch time in library code.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self._flag(
                node,
                "REPRO007",
                "time.time() is wall-clock epoch time; use "
                "time.perf_counter() for durations or time.process_time() "
                "for CPU time",
            )
        self.generic_visit(node)

    # -- REPRO007 / REPRO014: import-site rules ------------------------
    def visit_Import(self, node: ast.Import) -> None:
        if self.check_kernel_imports:
            for alias in node.names:
                if _KERNEL_PRIVATE_RE.search(alias.name):
                    self._flag(
                        node,
                        "REPRO014",
                        f"direct import of private kernel backend "
                        f"'{alias.name}'; resolve backends via "
                        "repro.kernels.resolve_kernel",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    self._flag(
                        node,
                        "REPRO007",
                        "'from time import time' imports the wall clock; "
                        "use time.perf_counter() / time.process_time()",
                    )
        if self.check_kernel_imports and node.module is not None:
            if _KERNEL_PRIVATE_RE.search(node.module):
                self._flag(
                    node,
                    "REPRO014",
                    f"direct import from private kernel backend "
                    f"'{node.module}'; resolve backends via "
                    "repro.kernels.resolve_kernel",
                )
            elif node.module == "repro.kernels" or node.module.endswith(
                ".kernels"
            ) or (node.level > 0 and node.module == "kernels"):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        self._flag(
                            node,
                            "REPRO014",
                            f"import of private kernel module "
                            f"'{alias.name}' from {node.module}; resolve "
                            "backends via repro.kernels.resolve_kernel",
                        )
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call, func: ast.expr) -> None:
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        # random.<fn>(...) — the module-level shared-state API.
        if isinstance(owner, ast.Name) and owner.id == "random":
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    self._flag(
                        node, "REPRO003", "random.Random() without an explicit seed"
                    )
            else:
                self._flag(
                    node,
                    "REPRO003",
                    f"module-level random.{func.attr}() uses hidden global "
                    "state; pass a seeded random.Random instead",
                )
        # np.random.<fn>(...) — legacy global state or unseeded generators.
        if _is_np_random(owner):
            if func.attr == "default_rng":
                if not node.args and not node.keywords:
                    self._flag(
                        node,
                        "REPRO003",
                        "np.random.default_rng() without an explicit seed",
                    )
            elif func.attr not in ("Generator", "SeedSequence", "PCG64"):
                self._flag(
                    node,
                    "REPRO003",
                    f"np.random.{func.attr}() uses the legacy global state; "
                    "use np.random.default_rng(seed)",
                )

    # -- REPRO004: loops over the group's query columns ----------------
    def _current_class(self) -> str | None:
        return self._class_stack[-1] if self._class_stack else None

    def _check_scalar_loop(self, node: ast.For | ast.While) -> None:
        if not self.check_loops or self._current_class() == _SCALAR_FALLBACK_CLASS:
            return
        header = node.iter if isinstance(node, ast.For) else node.test
        for sub in ast.walk(header):
            if isinstance(sub, ast.Name) and sub.id == "group":
                self._flag(
                    node,
                    "REPRO004",
                    "loop iterating the MaskGroup query columns outside the "
                    "designated ScalarLoopExecutor fallback",
                )
                return

    def visit_For(self, node: ast.For) -> None:
        self._check_scalar_loop(node)
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._check_scalar_loop(node)
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    # -- REPRO005: public-API annotations ------------------------------
    def _check_annotations(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if not self.check_annotations or node.name.startswith("_"):
            return
        if self._function_depth > 0:
            return  # nested functions are local helpers, not public API
        if any(cls.startswith("_") for cls in self._class_stack):
            return  # private helper classes are internal API
        args = node.args
        positional = args.posonlyargs + args.args + args.kwonlyargs
        missing = [
            arg.arg
            for arg in positional
            if arg.annotation is None and arg.arg not in ("self", "cls")
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if missing:
            self._flag(
                node,
                "REPRO005",
                f"public function '{node.name}' has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if node.returns is None:
            self._flag(
                node,
                "REPRO005",
                f"public function '{node.name}' has no return annotation",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_annotations(node)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_annotations(node)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1


def lint_source(
    source: str, path: Path, select: Iterable[str] | None = None
) -> list[LintFinding]:
    """Lint already-read source text (``path`` supplies rule context)."""
    module = _module_key(path, source)
    tree = ast.parse(source, filename=str(path))
    visitor = _Visitor(module, str(path))
    visitor.visit(tree)
    suppressed, bare = _scan_noqa(source)
    for line, col in sorted(bare.items()):
        visitor.findings.append(
            LintFinding(
                path=str(path),
                line=line,
                col=col,
                rule="REPRO000",
                message="bare '# noqa' suppresses nothing; name the rule "
                "code(s), e.g. '# noqa: REPRO002'",
            )
        )
    selected = frozenset(select) if select is not None else None
    findings = []
    for finding in visitor.findings:
        if selected is not None and finding.rule not in selected:
            continue
        if finding.rule in suppressed.get(finding.line, frozenset()):
            continue
        findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: Path, select: Iterable[str] | None = None) -> list[LintFinding]:
    """Lint one ``.py`` file."""
    return lint_source(path.read_text(encoding="utf-8"), path, select=select)


def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def lint_paths(
    paths: Sequence[Path], select: Iterable[str] | None = None
) -> list[LintFinding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: list[LintFinding] = []
    for path in _iter_python_files(paths):
        findings.extend(lint_file(path, select=select))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.lint",
        description="Project-specific AST lint rules (REPRO000-REPRO008); "
        "the flow-sensitive rules run via 'python -m repro.analysis flow'.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        type=lambda text: [part.strip().upper() for part in text.split(",") if part],
        default=None,
        help="comma-separated rule ids to enable (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            marker = "" if rule in AST_RULES else "  [flow]"
            print(f"{rule}  {summary}{marker}")
        return 0

    paths = args.paths or [Path("src/repro")]
    for path in paths:
        if not path.exists():
            parser.error(f"path does not exist: {path}")
    if args.select:
        unknown = [rule for rule in args.select if rule not in RULES]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        flow_only = [rule for rule in args.select if rule in FLOW_RULE_IDS]
        if flow_only:
            parser.error(
                f"{', '.join(flow_only)} are flow-sensitive rules; run "
                "'python -m repro.analysis flow' instead"
            )

    findings = lint_paths(paths, select=args.select)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
