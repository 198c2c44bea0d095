"""Flow-sensitive dataflow analyses over the package AST (REPRO009–011, 013).

Where :mod:`repro.analysis.lint` matches single AST nodes, this module
*interprets* whole functions: it builds a per-function control-flow graph
(:class:`Block`), runs a forward abstract-interpretation fixpoint over the
product lattice in :mod:`repro.analysis.domains`, consults the
interprocedural call summaries in :mod:`repro.analysis.summaries`, and then
replays the final states through three checkers:

``REPRO009`` (dtype/width)
    Silent integer/float narrowing through ``astype`` or element stores,
    ``1 << k`` shifts where ``k``'s interval can reach the operand width,
    and comparisons between distance arrays of provably different widths.
``REPRO010`` / ``REPRO011`` (units)
    Values are classified into the paper's unit domains — label-set
    bitmask, vertex id, distance, landmark index — by their producers
    (``label_bit``, ``full_mask``, BFS kernels, CSR accessors) and by
    parameter names.  REPRO010 flags arithmetic/comparison that mixes two
    known domains; REPRO011 flags a call argument whose domain contradicts
    the parameter it binds to.
``REPRO013`` (resources)
    Allocation-site lifecycle tracking for ``np.memmap`` handles plus
    read-only ``PowCovTable`` columns: use-after-close, handles leaked on
    normal or exception paths, and writes into read-only views.

Exception edges propagate the *entry* state of the raising block, so a
resource that is open when a statement can raise is seen as open at the
enclosing handler / function exit — that is what makes the
leak-on-exception check sound.  ``with`` statements mark their context
managers as externally managed (no leak report) while still modeling the
close-on-exit transition for use-after-close detection.

Findings flow through the same :class:`~repro.analysis.lint.LintFinding` /
``# noqa: REPRO0xx`` machinery as the AST rules.  On top of that sit three
CI conveniences:

* a **baseline** file (``flow-baseline.txt``) of accepted pre-existing
  findings, keyed by content fingerprints that survive line renumbering;
* a per-file **result cache** keyed on source hash + summary-table digest
  + engine version, keeping the warm full-package pass well under the
   10 s CI budget;
* ``--sarif`` output (SARIF 2.1.0) for GitHub code-scanning upload.

Run it as ``python -m repro.analysis flow [paths...]`` (defaults to
``src/repro``); exits non-zero iff un-baselined findings remain.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from .domains import (
    UNKNOWN,
    AbstractValue,
    Domain,
    DType,
    Interval,
    ResourceState,
    dtype_set,
    may_narrow,
    min_width,
    parse_dtype_token,
    promote,
)
from .lint import RULES, LintFinding, _iter_python_files, _module_key, _noqa_lines
from .summaries import (
    Summary,
    _annotation_value,
    classify_param_name,
    collect_summaries,
    summaries_digest,
)

__all__ = [
    "ENGINE_VERSION",
    "FLOW_RULES",
    "Block",
    "build_cfg",
    "analyze_source",
    "analyze_paths",
    "finding_fingerprints",
    "load_baseline",
    "write_sarif",
    "main",
]

#: Bumped whenever the engine's semantics change; invalidates the cache.
ENGINE_VERSION = 2

#: The rules this engine owns (catalog text lives in ``lint.RULES``).
FLOW_RULES = ("REPRO009", "REPRO010", "REPRO011", "REPRO013")

#: Default baseline / cache locations (repo-root relative).
DEFAULT_BASELINE = Path("flow-baseline.txt")
DEFAULT_CACHE = Path(".repro-flow-cache.json")

#: Module exempt from domain-mixing checks: it *implements* mask algebra
#: (Gosper's hack et al. legitimately does ``mask + lowest``).
_DOMAIN_EXEMPT_MODULES = ("graph/labelsets.py",)

#: Lifecycle method names (never "use" of a resource).
_LIFECYCLE_ATTRS = frozenset({"close", "unlink", "release", "__exit__"})
#: Mutating ndarray methods (REPRO013 on read-only views).
_ARRAY_WRITE_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "itemset", "setflags", "resize"}
)
#: CSR accessor attributes — read-only views with unit domains.
_CSR_READONLY = {
    "indptr": AbstractValue(dtypes=dtype_set(DType.INT64), kind="array", readonly=True),
    "neighbors": AbstractValue(kind="array", domain=Domain.VERTEX, readonly=True),
    "edge_labels": AbstractValue(kind="array", readonly=True),
}
#: PowCovTable column attributes: possibly store mappings (mode="r"), and
#: never written — a repair publishes new arrays instead.
_MAPPED_COLUMNS = {
    "key": AbstractValue(dtypes=dtype_set(DType.INT64), kind="array", readonly=True),
    "dist": AbstractValue(
        dtypes=dtype_set(DType.FLOAT64),
        kind="array",
        domain=Domain.DIST,
        readonly=True,
    ),
    "mask": AbstractValue(
        dtypes=dtype_set(DType.UINT64),
        kind="array",
        domain=Domain.MASK,
        readonly=True,
    ),
}

_OPEN = frozenset({ResourceState.OPEN})


# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------


@dataclass
class Block:
    """One straight-line run of ops plus its outgoing edges.

    ``ops`` are small tagged tuples (``("stmt", node)``, ``("expr", node)``,
    ``("for", target, iter)``, ``("with-enter", item)``,
    ``("with-exit", names)``, ``("except", handler)``, ``("return", node)``,
    ``("bind", names)``).  ``exc_succs`` receive the block's *entry* state —
    may-raise statements are isolated into single-op blocks so that entry
    state is exactly the state before the raising statement.
    """

    ops: list[tuple[object, ...]] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    exc_succs: list[int] = field(default_factory=list)


class _CFG:
    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.entry = self.new()
        self.exit = self.new()
        self.raise_exit = self.new()

    def new(self) -> int:
        self.blocks.append(Block())
        return len(self.blocks) - 1

    def edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)


def _is_cleanup_stmt(node: ast.AST) -> bool:
    """``x.close()`` / ``.unlink()`` / ``.release()`` as a whole statement.

    Cleanup calls are modeled as non-raising: their own exception edge
    would otherwise report the handle they are releasing as leaked, and a
    release that throws has nothing left to clean anyway.
    """
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in ("close", "unlink", "release")
        and not node.value.args
        and not node.value.keywords
    )


def _may_raise(node: ast.AST) -> bool:
    if _is_cleanup_stmt(node):
        return False
    return any(
        isinstance(sub, (ast.Call, ast.Raise, ast.Assert)) for sub in ast.walk(node)
    )


class _CFGBuilder:
    """Lower a statement list into a :class:`_CFG`."""

    def __init__(self) -> None:
        self.cfg = _CFG()
        self.cur: int = self.cfg.entry
        self._loops: list[tuple[int, int]] = []  # (continue target, break target)
        self._exc: list[tuple[int, ...]] = [(self.cfg.raise_exit,)]

    # -- plumbing ------------------------------------------------------
    def _emit(self, op: tuple[object, ...], may_raise: bool = False) -> None:
        if may_raise:
            if self.cfg.blocks[self.cur].ops:
                nxt = self.cfg.new()
                self.cfg.edge(self.cur, nxt)
                self.cur = nxt
            self.cfg.blocks[self.cur].ops.append(op)
            self.cfg.blocks[self.cur].exc_succs.extend(self._exc[-1])
            nxt = self.cfg.new()
            self.cfg.edge(self.cur, nxt)
            self.cur = nxt
        else:
            self.cfg.blocks[self.cur].ops.append(op)

    def _terminate(self, target: int | None, exc: bool = False) -> None:
        """End the current path (return/break/continue/raise)."""
        if exc:
            self.cfg.blocks[self.cur].exc_succs.extend(self._exc[-1])
        if target is not None:
            self.cfg.edge(self.cur, target)
        self.cur = self.cfg.new()  # orphan: code after a jump is unreachable

    # -- statements ----------------------------------------------------
    def build(self, body: Sequence[ast.stmt]) -> _CFG:
        self._stmts(body)
        self.cfg.edge(self.cur, self.cfg.exit)
        return self.cfg

    def _stmts(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, s: ast.stmt) -> None:  # noqa: C901 - flat dispatch
        if isinstance(s, ast.If):
            self._emit(("expr", s.test), may_raise=_may_raise(s.test))
            head = self.cur
            after = self.cfg.new()
            then = self.cfg.new()
            self.cfg.edge(head, then)
            self.cur = then
            self._stmts(s.body)
            self.cfg.edge(self.cur, after)
            if s.orelse:
                other = self.cfg.new()
                self.cfg.edge(head, other)
                self.cur = other
                self._stmts(s.orelse)
                self.cfg.edge(self.cur, after)
            else:
                self.cfg.edge(head, after)
            self.cur = after
        elif isinstance(s, ast.While):
            head = self.cfg.new()
            self.cfg.edge(self.cur, head)
            self.cur = head
            self._emit(("expr", s.test))
            head = self.cur
            body = self.cfg.new()
            after = self.cfg.new()
            self.cfg.edge(head, body)
            self.cfg.edge(head, after)
            self._loops.append((head, after))
            self.cur = body
            self._stmts(s.body)
            self.cfg.edge(self.cur, head)
            self._loops.pop()
            if s.orelse:
                self.cur = self.cfg.new()
                self.cfg.edge(head, self.cur)
                self._stmts(s.orelse)
                self.cfg.edge(self.cur, after)
            self.cur = after
        elif isinstance(s, (ast.For, ast.AsyncFor)):
            head = self.cfg.new()
            self.cfg.edge(self.cur, head)
            self.cur = head
            self._emit(("for", s.target, s.iter))
            head = self.cur
            body = self.cfg.new()
            after = self.cfg.new()
            self.cfg.edge(head, body)
            self.cfg.edge(head, after)
            self._loops.append((head, after))
            self.cur = body
            self._stmts(s.body)
            self.cfg.edge(self.cur, head)
            self._loops.pop()
            if s.orelse:
                self.cur = self.cfg.new()
                self.cfg.edge(head, self.cur)
                self._stmts(s.orelse)
                self.cfg.edge(self.cur, after)
            self.cur = after
        elif isinstance(s, ast.Try):
            self._try(s)
        elif isinstance(s, (ast.With, ast.AsyncWith)):
            names: list[str] = []
            for item in s.items:
                self._emit(("with-enter", item), may_raise=True)
                if isinstance(item.optional_vars, ast.Name):
                    names.append(item.optional_vars.id)
            self._stmts(s.body)
            self._emit(("with-exit", tuple(names)))
        elif isinstance(s, ast.Return):
            self._emit(("return", s.value), may_raise=_may_raise(s))
            self._terminate(self.cfg.exit)
        elif isinstance(s, ast.Raise):
            # Unlike an implicit raise mid-statement, an explicit ``raise``
            # happens *after* the preceding ops ran — it transfers the
            # current (out) state to the exception target, so model it as
            # ordinary edges rather than entry-state exc edges.
            self._emit(("stmt", s))
            for target in self._exc[-1]:
                self.cfg.edge(self.cur, target)
            self.cur = self.cfg.new()
        elif isinstance(s, ast.Break):
            self._terminate(self._loops[-1][1] if self._loops else self.cfg.exit)
        elif isinstance(s, ast.Continue):
            self._terminate(self._loops[-1][0] if self._loops else self.cfg.exit)
        elif isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Bodies are analyzed as separate functions; here just a binding.
            self._emit(("bind", (s.name,)))
        elif isinstance(s, ast.Match):
            self._match(s)
        elif isinstance(s, (ast.Global, ast.Nonlocal, ast.Pass)):
            pass
        else:
            self._emit(("stmt", s), may_raise=_may_raise(s))

    def _try(self, s: ast.Try) -> None:
        after = self.cfg.new()
        final_entry = self.cfg.new() if s.finalbody else None
        outer = self._exc[-1]
        # Exceptions escaping a handler (or the else/finally) unwind to the
        # finally block when there is one, else to the enclosing target.
        escape: tuple[int, ...] = (final_entry,) if final_entry is not None else outer
        handler_entries = [self.cfg.new() for _ in s.handlers]
        body_exc = tuple(handler_entries) if handler_entries else escape
        self._exc.append(body_exc)
        self._stmts(s.body)
        self._exc.pop()
        if s.orelse:
            self._exc.append(escape)
            self._stmts(s.orelse)
            self._exc.pop()
        self.cfg.edge(self.cur, final_entry if final_entry is not None else after)
        for entry, handler in zip(handler_entries, s.handlers):
            self.cur = entry
            self._emit(("except", handler))
            self._exc.append(escape)
            self._stmts(handler.body)
            self._exc.pop()
            self.cfg.edge(self.cur, final_entry if final_entry is not None else after)
        if final_entry is not None:
            # Built once; exits to both the normal continuation and the
            # enclosing exception target (the two ways a finally is left).
            self.cur = final_entry
            self._exc.append(outer)
            self._stmts(s.finalbody)
            self._exc.pop()
            self.cfg.edge(self.cur, after)
            for target in outer:
                self.cfg.edge(self.cur, target)
        self.cur = after

    def _match(self, s: ast.Match) -> None:
        self._emit(("expr", s.subject), may_raise=_may_raise(s.subject))
        head = self.cur
        after = self.cfg.new()
        self.cfg.edge(head, after)  # no case may match
        for case in s.cases:
            names = tuple(
                sub.name
                for sub in ast.walk(case.pattern)
                if isinstance(sub, (ast.MatchAs, ast.MatchStar)) and sub.name
            )
            branch = self.cfg.new()
            self.cfg.edge(head, branch)
            self.cur = branch
            if names:
                self._emit(("bind", names))
            self._stmts(case.body)
            self.cfg.edge(self.cur, after)
        self.cur = after


def build_cfg(body: Sequence[ast.stmt]) -> tuple[list[Block], int, int, int]:
    """Public CFG constructor: ``(blocks, entry, exit, raise_exit)``."""
    cfg = _CFGBuilder().build(body)
    return cfg.blocks, cfg.entry, cfg.exit, cfg.raise_exit


# ---------------------------------------------------------------------------
# Abstract state
# ---------------------------------------------------------------------------


class _State:
    """Variable environment plus per-allocation-site resource states."""

    __slots__ = ("vars", "res")

    def __init__(
        self,
        vars: dict[str, AbstractValue] | None = None,
        res: dict[int, frozenset[ResourceState]] | None = None,
    ) -> None:
        self.vars: dict[str, AbstractValue] = vars if vars is not None else {}
        self.res: dict[int, frozenset[ResourceState]] = res if res is not None else {}

    def copy(self) -> "_State":
        return _State(dict(self.vars), dict(self.res))

    def join(self, other: "_State", widen: bool = False) -> "_State":
        merged: dict[str, AbstractValue] = {}
        for name in self.vars.keys() | other.vars.keys():
            a = self.vars.get(name, UNKNOWN)
            b = other.vars.get(name, UNKNOWN)
            merged[name] = b.widen_against(a) if widen else a.join(b)
        res: dict[int, frozenset[ResourceState]] = {}
        for sid in self.res.keys() | other.res.keys():
            res[sid] = self.res.get(sid, frozenset()) | other.res.get(sid, frozenset())
        return _State(merged, res)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _State)
            and self.vars == other.vars
            and self.res == other.res
        )

    def __hash__(self) -> int:  # pragma: no cover - states are not hashed
        raise TypeError("_State is unhashable")


@dataclass
class _Site:
    """One resource allocation site (a specific call expression)."""

    kind: str
    line: int
    col: int
    managed: bool = False  # context-managed: cleanup is someone else's job


#: Visits to one block before interval widening kicks in.
_WIDEN_AFTER = 8
#: Hard safety valve on fixpoint iterations per function.
_MAX_STEPS_PER_BLOCK = 64


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------


class _FunctionAnalyzer:
    """Abstract-interpret one function (or the module top level)."""

    def __init__(
        self,
        module: str,
        path: str,
        summaries: dict[str, Summary],
        body: Sequence[ast.stmt],
        args: ast.arguments | None,
    ) -> None:
        self.module = module
        self.path = path
        self.summaries = summaries
        self.blocks, self.entry, self.exit, self.raise_exit = build_cfg(body)
        self.args = args
        self.check_domains = module not in _DOMAIN_EXEMPT_MODULES
        self._sites: dict[int, _Site] = {}
        self._site_ids: dict[tuple[int, int, str], int] = {}
        self._findings: dict[tuple[int, int, str], LintFinding] = {}

    # -- reporting -----------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        self._findings.setdefault(
            (line, col, rule), LintFinding(self.path, line, col, rule, message)
        )

    # -- entry seeding -------------------------------------------------
    def _seed(self) -> _State:
        state = _State()
        if self.args is None:
            return state
        arg_list = self.args.posonlyargs + self.args.args + self.args.kwonlyargs
        for arg in arg_list:
            value = _annotation_value(arg.annotation)
            domain = classify_param_name(arg.arg)
            if domain is not None:
                value = value.with_domain(domain)
            state.vars[arg.arg] = value
        for arg in (self.args.vararg, self.args.kwarg):
            if arg is not None:
                state.vars[arg.arg] = UNKNOWN
        return state

    # -- driver --------------------------------------------------------
    def run(self) -> list[LintFinding]:
        in_states: dict[int, _State] = {self.entry: self._seed()}
        visits: dict[int, int] = {}
        work: deque[int] = deque([self.entry])
        budget = _MAX_STEPS_PER_BLOCK * max(1, len(self.blocks))
        while work and budget > 0:
            budget -= 1
            bid = work.popleft()
            entry_state = in_states[bid]
            out = self._transfer(self.blocks[bid], entry_state, report=False)
            for succ in self.blocks[bid].succs:
                self._merge(succ, out, in_states, visits, work)
            for succ in self.blocks[bid].exc_succs:
                # Exception edges carry the state *before* the block ran.
                self._merge(succ, entry_state, in_states, visits, work)
        # Check pass: replay every reachable block against its fixed state.
        for bid, state in in_states.items():
            if self.blocks[bid].ops:
                self._transfer(self.blocks[bid], state, report=True)
        self._check_leaks(in_states)
        return list(self._findings.values())

    def _merge(
        self,
        target: int,
        state: _State,
        in_states: dict[int, _State],
        visits: dict[int, int],
        work: deque[int],
    ) -> None:
        current = in_states.get(target)
        if current is None:
            in_states[target] = state.copy()
            work.append(target)
            return
        count = visits.get(target, 0) + 1
        visits[target] = count
        joined = current.join(state, widen=count > _WIDEN_AFTER)
        if joined != current:
            in_states[target] = joined
            work.append(target)

    def _check_leaks(self, in_states: dict[int, _State]) -> None:
        exit_state = in_states.get(self.exit)
        raise_state = in_states.get(self.raise_exit)

        def leaking(state: _State | None, sid: int) -> bool:
            if state is None or sid not in state.res:
                return False
            states = state.res[sid]
            return (
                ResourceState.OPEN in states
                and ResourceState.ESCAPED not in states
            )

        for sid, site in self._sites.items():
            if site.managed:
                continue
            anchor = _Anchor(site.line, site.col)
            if leaking(exit_state, sid):
                self._flag(
                    anchor,
                    "REPRO013",
                    f"{site.kind} handle opened here is not released on every "
                    "path; call close()/unlink() (or release()) before "
                    "returning",
                )
            elif leaking(raise_state, sid):
                self._flag(
                    anchor,
                    "REPRO013",
                    f"{site.kind} handle opened here leaks when an exception "
                    "unwinds; release it in a finally block",
                )

    # -- transfer function --------------------------------------------
    def _transfer(self, block: Block, state: _State, report: bool) -> _State:
        st = state.copy()
        for op in block.ops:
            tag = op[0]
            if tag == "stmt":
                self._exec(op[1], st, report)  # type: ignore[arg-type]
            elif tag == "expr":
                self._eval(op[1], st, report)  # type: ignore[arg-type]
            elif tag == "for":
                iterable = self._eval(op[2], st, report)  # type: ignore[arg-type]
                self._bind(op[1], _elem_of(iterable), st, report)  # type: ignore[arg-type]
            elif tag == "with-enter":
                item = op[1]
                value = self._eval(item.context_expr, st, report)  # type: ignore[union-attr]
                for sid in value.resources:
                    if sid in self._sites:
                        self._sites[sid].managed = True
                if item.optional_vars is not None:  # type: ignore[union-attr]
                    self._bind(item.optional_vars, value, st, report)  # type: ignore[union-attr]
            elif tag == "with-exit":
                for name in op[1]:  # type: ignore[union-attr]
                    value = st.vars.get(name)
                    if value is not None:
                        self._close(value, st)
            elif tag == "except":
                handler = op[1]
                if handler.name:  # type: ignore[union-attr]
                    st.vars[handler.name] = UNKNOWN  # type: ignore[union-attr, index]
            elif tag == "return":
                if op[1] is not None:
                    value = self._eval(op[1], st, report)  # type: ignore[arg-type]
                    self._escape(value, st)
            elif tag == "bind":
                for name in op[1]:  # type: ignore[union-attr]
                    st.vars[name] = UNKNOWN  # type: ignore[index]
        return st

    def _exec(self, stmt: ast.stmt, st: _State, report: bool) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, st, report)
            for target in stmt.targets:
                self._bind(target, value, st, report)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self._eval(stmt.value, st, report)
            else:
                value = _annotation_value(stmt.annotation)
            self._bind(stmt.target, value, st, report)
        elif isinstance(stmt, ast.AugAssign):
            left = self._eval(stmt.target, st, report)
            right = self._eval(stmt.value, st, report)
            value = self._binop(stmt, stmt.op, left, right, report)
            self._bind(stmt.target, value, st, report)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, st, report)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, st, report)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, st, report)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    st.vars.pop(target.id, None)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.name in ("numpy", "numpy.typing"):
                    st.vars[name] = AbstractValue(tag="module:numpy")
                else:
                    st.vars[name] = UNKNOWN
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                st.vars[alias.asname or alias.name] = UNKNOWN

    # -- binding -------------------------------------------------------
    def _bind(
        self, target: ast.expr, value: AbstractValue, st: _State, report: bool
    ) -> None:
        if isinstance(target, ast.Name):
            st.vars[target.id] = value
        elif isinstance(target, ast.Starred):
            self._bind(target.value, UNKNOWN, st, report)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elem = _elem_of(value)
            for sub in target.elts:
                self._bind(sub, elem, st, report)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value, st, report)
            # Stored into an object: lifetime responsibility moves with it.
            self._escape(value, st)
        elif isinstance(target, ast.Subscript):
            base = self._eval(target.value, st, report)
            self._eval(target.slice, st, report)
            if report and base.readonly:
                self._flag(
                    target,
                    "REPRO013",
                    "store into a read-only array view (memmap mode='r' / "
                    "PowCovTable column / CSR accessor)",
                )
            if (
                report
                and base.kind == "array"
                and may_narrow(value.dtypes, base.dtypes)
            ):
                self._flag(
                    target,
                    "REPRO009",
                    f"element store may narrow {_fmt_dtypes(value.dtypes)} "
                    f"to {_fmt_dtypes(base.dtypes)} silently",
                )
            self._escape(value, st)

    # -- resource helpers ---------------------------------------------
    def _alloc(self, kind: str, node: ast.expr, st: _State) -> AbstractValue:
        key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), kind)
        sid = self._site_ids.setdefault(key, len(self._site_ids))
        self._sites.setdefault(sid, _Site(kind, key[0], key[1]))
        st.res[sid] = _OPEN
        return AbstractValue(resources=frozenset({sid}), tag=f"resource:{kind}")

    def _close(self, value: AbstractValue, st: _State) -> None:
        for sid in value.resources:
            states = st.res.get(sid, frozenset())
            st.res[sid] = (states - {ResourceState.OPEN}) | {ResourceState.CLOSED}

    def _escape(self, value: AbstractValue, st: _State) -> None:
        for sid in value.resources:
            st.res[sid] = st.res.get(sid, frozenset()) | {ResourceState.ESCAPED}

    def _check_use(
        self, node: ast.AST, value: AbstractValue, st: _State, report: bool
    ) -> None:
        if not report or not value.resources:
            return
        for sid in value.resources:
            states = st.res.get(sid)
            if not states or ResourceState.OPEN in states:
                continue
            if ResourceState.CLOSED in states:
                site = self._sites.get(sid)
                kind = site.kind if site else "resource"
                self._flag(
                    node,
                    "REPRO013",
                    f"use of a {kind} handle after close()/unlink(); the "
                    "mapping is gone on every path reaching this line",
                )

    # -- expression evaluation ----------------------------------------
    def _eval(  # noqa: C901 - central dispatch
        self, node: ast.expr, st: _State, report: bool
    ) -> AbstractValue:
        if isinstance(node, ast.Constant):
            return _const_value(node.value)
        if isinstance(node, ast.Name):
            if node.id in st.vars:
                return st.vars[node.id]
            if node.id in ("np", "numpy"):
                return AbstractValue(tag="module:numpy")
            return UNKNOWN
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, st, report)
        if isinstance(node, ast.Call):
            return self._eval_call(node, st, report)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, st, report)
            right = self._eval(node.right, st, report)
            return self._binop(node, node.op, left, right, report)
        if isinstance(node, ast.Compare):
            return self._compare(node, st, report)
        if isinstance(node, ast.BoolOp):
            result = UNKNOWN
            for i, sub in enumerate(node.values):
                value = self._eval(sub, st, report)
                result = value if i == 0 else result.join(value)
            return result
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, st, report)
            if isinstance(node.op, ast.Not):
                return AbstractValue(dtypes=dtype_set(DType.BOOL), kind="scalar")
            if isinstance(node.op, ast.USub):
                ivl = operand.ivl.neg() if operand.ivl is not None else None
                return replace(operand, ivl=ivl)
            return operand
        if isinstance(node, ast.IfExp):
            self._eval(node.test, st, report)
            return self._eval(node.body, st, report).join(
                self._eval(node.orelse, st, report)
            )
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, st, report)
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part, st, report)
            return AbstractValue(kind="slice")
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            elem: AbstractValue | None = None
            resources: frozenset[int] = frozenset()
            for sub in node.elts:
                value = self._eval(sub, st, report)
                resources = resources | value.resources
                elem = value if elem is None else elem.join(value)
            # The container carries its elements' resources: storing or
            # returning it transfers their cleanup responsibility too.
            return AbstractValue(kind="iter", elem=elem, resources=resources)
        if isinstance(node, ast.Dict):
            resources = frozenset()
            for key, value_node in zip(node.keys, node.values):
                if key is not None:
                    self._eval(key, st, report)
                resources = resources | self._eval(value_node, st, report).resources
            return AbstractValue(kind="iter", resources=resources)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, st, report)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            for gen in node.generators:
                iterable = self._eval(gen.iter, st, report)
                self._bind(gen.target, _elem_of(iterable), st, report)
                for cond in gen.ifs:
                    self._eval(cond, st, report)
            elt = self._eval(node.elt, st, report)
            return AbstractValue(kind="iter", elem=elt, resources=elt.resources)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                iterable = self._eval(gen.iter, st, report)
                self._bind(gen.target, _elem_of(iterable), st, report)
                for cond in gen.ifs:
                    self._eval(cond, st, report)
            self._eval(node.key, st, report)
            self._eval(node.value, st, report)
            return AbstractValue(kind="iter")
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, st, report)
            self._bind(node.target, value, st, report)
            return value
        if isinstance(node, ast.JoinedStr):
            for sub in node.values:
                if isinstance(sub, ast.FormattedValue):
                    self._eval(sub.value, st, report)
            return AbstractValue(kind="scalar")
        if isinstance(node, ast.FormattedValue):
            self._eval(node.value, st, report)
            return AbstractValue(kind="scalar")
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            if node.value is not None:
                self._escape(self._eval(node.value, st, report), st)
            return UNKNOWN
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self._escape(self._eval(node.value, st, report), st)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            return AbstractValue(kind="scalar")
        return UNKNOWN

    def _eval_attribute(
        self, node: ast.Attribute, st: _State, report: bool
    ) -> AbstractValue:
        base = self._eval(node.value, st, report)
        attr = node.attr
        if base.tag == "module:numpy":
            dt = parse_dtype_token(attr)
            if dt is not None:
                return AbstractValue(dtypes=dtype_set(dt), kind="dtype")
            return AbstractValue(tag=f"module:numpy.{attr}")
        if base.tag == "mapped-table" and attr in _MAPPED_COLUMNS:
            return _MAPPED_COLUMNS[attr]
        if attr not in _LIFECYCLE_ATTRS:
            self._check_use(node, base, st, report)
        if attr in _CSR_READONLY:
            return _CSR_READONLY[attr]
        return UNKNOWN

    def _eval_subscript(
        self, node: ast.Subscript, st: _State, report: bool
    ) -> AbstractValue:
        base = self._eval(node.value, st, report)
        index = self._eval(node.slice, st, report)
        self._check_use(node, base, st, report)
        if base.kind == "iter":
            return _elem_of(base)
        if base.kind == "array":
            if index.kind in ("slice", "array") or isinstance(node.slice, ast.Slice):
                return base  # a view: same dtype/domain/readonly
            return AbstractValue(
                dtypes=base.dtypes, kind="scalar", domain=base.domain, ivl=base.ivl
            )
        return UNKNOWN

    # -- operators -----------------------------------------------------
    def _binop(
        self,
        node: ast.AST,
        op: ast.operator,
        left: AbstractValue,
        right: AbstractValue,
        report: bool,
    ) -> AbstractValue:
        if (
            report
            and self.check_domains
            and left.domain is not None
            and right.domain is not None
            and left.domain != right.domain
        ):
            self._flag(
                node,
                "REPRO010",
                f"arithmetic mixes unit domains: {left.domain.value} "
                f"{_OP_NAMES.get(type(op), 'op')} {right.domain.value}",
            )
        if report and isinstance(op, ast.LShift):
            width = min_width(left.dtypes) if left.dtypes else 0
            all_fixed_int = bool(left.dtypes) and all(
                d.is_fixed_width and d.is_integer for d in (left.dtypes or ())
            )
            shift = right.ivl
            if (
                all_fixed_int
                and width > 0
                and shift is not None
                and shift.hi is not None
                and shift.hi >= width
            ):
                self._flag(
                    node,
                    "REPRO009",
                    f"left shift of a {width}-bit value by up to {shift.hi} "
                    f"bits overflows (width {width})",
                )
        dtypes = _promote_sets(left.dtypes, right.dtypes)
        if left.domain == right.domain:
            domain = left.domain
        elif left.domain is None:
            domain = right.domain
        elif right.domain is None:
            domain = left.domain
        else:
            domain = None
        ivl: Interval | None = None
        if left.ivl is not None and right.ivl is not None:
            if isinstance(op, ast.Add):
                ivl = left.ivl.add(right.ivl)
            elif isinstance(op, ast.Sub):
                ivl = left.ivl.sub(right.ivl)
        if left.kind == "array" or right.kind == "array":
            kind = "array"
        elif left.kind == "scalar" and right.kind == "scalar":
            kind = "scalar"
        else:
            kind = "unknown"
        return AbstractValue(dtypes=dtypes, kind=kind, domain=domain, ivl=ivl)

    def _compare(self, node: ast.Compare, st: _State, report: bool) -> AbstractValue:
        values = [self._eval(node.left, st, report)]
        values.extend(self._eval(sub, st, report) for sub in node.comparators)
        if report:
            for op, left, right in zip(node.ops, values, values[1:]):
                if isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)):
                    continue
                if (
                    self.check_domains
                    and left.domain is not None
                    and right.domain is not None
                    and left.domain != right.domain
                ):
                    self._flag(
                        node,
                        "REPRO010",
                        f"comparison mixes unit domains: {left.domain.value} "
                        f"vs {right.domain.value}",
                    )
                if (
                    left.kind == "array"
                    and right.kind == "array"
                    and left.domain == Domain.DIST
                    and right.domain == Domain.DIST
                    and _disjoint_int_widths(left.dtypes, right.dtypes)
                ):
                    self._flag(
                        node,
                        "REPRO009",
                        "comparison between distance arrays of different "
                        f"integer widths ({_fmt_dtypes(left.dtypes)} vs "
                        f"{_fmt_dtypes(right.dtypes)})",
                    )
        return AbstractValue(dtypes=dtype_set(DType.BOOL), kind="scalar")

    # -- calls ---------------------------------------------------------
    def _eval_call(  # noqa: C901 - central dispatch
        self, node: ast.Call, st: _State, report: bool
    ) -> AbstractValue:
        argvals = [self._eval(arg, st, report) for arg in node.args]
        kwvals: dict[str | None, AbstractValue] = {
            kw.arg: self._eval(kw.value, st, report) for kw in node.keywords
        }
        func = node.func
        base: AbstractValue | None = None
        if isinstance(func, ast.Attribute):
            base = self._eval(func.value, st, report)
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            self._eval(func, st, report)
            name = ""
        # Keyword arguments are domain-checkable for *any* callee.
        if report:
            for kw in node.keywords:
                expected = classify_param_name(kw.arg) if kw.arg else None
                got = kwvals.get(kw.arg, UNKNOWN)
                if (
                    expected is not None
                    and got.domain is not None
                    and got.domain != expected
                ):
                    self._flag(
                        kw.value,
                        "REPRO011",
                        f"keyword argument '{kw.arg}' expects a "
                        f"{expected.value} but receives a {got.domain.value}",
                    )
        # Arguments handed to another callable escape our responsibility.
        for value in [*argvals, *kwvals.values()]:
            self._escape(value, st)

        if base is not None:
            result = self._method_call(node, name, base, argvals, kwvals, st, report)
            if result is not None:
                return result
        builtin = self._builtin_call(node, name, argvals, kwvals)
        if builtin is not None:
            return builtin
        # A variable holding a dtype object used as a constructor: idx(x).
        if isinstance(func, ast.Name):
            fval = st.vars.get(func.id)
            if fval is not None and fval.kind == "dtype":
                return _cast(argvals[0] if argvals else UNKNOWN, fval.dtypes)
        return self._summary_call(node, name, argvals, report)

    def _method_call(
        self,
        node: ast.Call,
        name: str,
        base: AbstractValue,
        argvals: list[AbstractValue],
        kwvals: dict[str | None, AbstractValue],
        st: _State,
        report: bool,
    ) -> AbstractValue | None:
        if base.tag == "module:numpy":
            return self._numpy_call(node, name, argvals, kwvals, st)
        if name not in _LIFECYCLE_ATTRS:
            self._check_use(node, base, st, report)
        if name in _LIFECYCLE_ATTRS and base.resources:
            self._close(base, st)
            return AbstractValue(kind="scalar")
        if name == "astype":
            target = kwvals.get("dtype") or (argvals[0] if argvals else UNKNOWN)
            target_dtypes = target.dtypes if target.kind == "dtype" else None
            if report and may_narrow(base.dtypes, target_dtypes):
                self._flag(
                    node,
                    "REPRO009",
                    f"astype may silently narrow {_fmt_dtypes(base.dtypes)} "
                    f"to {_fmt_dtypes(target_dtypes)}; guard the cast or "
                    "widen the target",
                )
            return replace(base, dtypes=target_dtypes, readonly=False)
        if name in _ARRAY_WRITE_METHODS:
            if report and base.readonly:
                self._flag(
                    node,
                    "REPRO013",
                    f".{name}() mutates a read-only array view (memmap "
                    "mode='r' / PowCovTable column / CSR accessor)",
                )
            return AbstractValue(kind="scalar")
        if name == "copy":
            return replace(base, readonly=False, resources=frozenset())
        return None

    def _numpy_call(
        self,
        node: ast.Call,
        name: str,
        argvals: list[AbstractValue],
        kwvals: dict[str | None, AbstractValue],
        st: _State,
    ) -> AbstractValue:
        dt = parse_dtype_token(name)
        if dt is not None:  # np.uint64(x): a scalar cast
            return _cast(argvals[0] if argvals else UNKNOWN, dtype_set(dt))
        dtype_kw = kwvals.get("dtype")
        kw_dtypes = dtype_kw.dtypes if dtype_kw is not None and dtype_kw.kind == "dtype" else None
        if name in ("zeros", "ones", "empty", "full"):
            dtypes = kw_dtypes or dtype_set(DType.FLOAT64)
            return AbstractValue(dtypes=dtypes, kind="array")
        if name in ("zeros_like", "ones_like", "empty_like", "full_like"):
            src = argvals[0] if argvals else UNKNOWN
            return AbstractValue(dtypes=kw_dtypes or src.dtypes, kind="array")
        if name == "arange":
            stop = argvals[1] if len(argvals) >= 2 else (argvals[0] if argvals else UNKNOWN)
            ivl: Interval | None = None
            if stop.ivl is not None and stop.ivl.hi is not None:
                ivl = Interval(0, stop.ivl.hi - 1)
            return AbstractValue(
                dtypes=kw_dtypes or dtype_set(DType.INT64), kind="array", ivl=ivl
            )
        if name in ("asarray", "ascontiguousarray", "array", "copy"):
            src = argvals[0] if argvals else UNKNOWN
            return AbstractValue(
                dtypes=kw_dtypes or src.dtypes,
                kind="array",
                domain=src.domain,
                ivl=src.ivl,
            )
        if name == "searchsorted":
            return AbstractValue(dtypes=dtype_set(DType.INT64), kind="array")
        if name == "memmap":
            value = self._alloc("memmap", node, st)
            mode = kwvals.get("mode")
            readonly = mode is not None and mode.tag == "const:r"
            return replace(value, kind="array", readonly=readonly)
        if name in ("minimum", "maximum", "where"):
            arrays = [a for a in argvals if a.kind == "array"]
            result = UNKNOWN
            for i, a in enumerate(arrays):
                result = a if i == 0 else result.join(a)
            return replace(result, kind="array") if arrays else UNKNOWN
        if name in ("flatnonzero", "nonzero", "argsort", "argmin", "argmax"):
            return AbstractValue(dtypes=dtype_set(DType.INT64), kind="array")
        if name in ("sum", "min", "max", "count_nonzero", "dot"):
            src = argvals[0] if argvals else UNKNOWN
            return AbstractValue(dtypes=src.dtypes, kind="scalar", domain=src.domain)
        return UNKNOWN

    def _builtin_call(
        self,
        node: ast.Call,
        name: str,
        argvals: list[AbstractValue],
        kwvals: dict[str | None, AbstractValue],
    ) -> AbstractValue | None:
        if name == "range":
            stop = argvals[1] if len(argvals) >= 2 else (argvals[0] if argvals else UNKNOWN)
            hi = stop.ivl.hi - 1 if stop.ivl is not None and stop.ivl.hi is not None else None
            lo = 0 if len(argvals) < 2 else (
                argvals[0].ivl.lo if argvals[0].ivl is not None else None
            )
            elem = AbstractValue(
                dtypes=dtype_set(DType.PYINT), kind="scalar", ivl=Interval(lo, hi)
            )
            return AbstractValue(kind="iter", elem=elem)
        if name == "len":
            return AbstractValue(
                dtypes=dtype_set(DType.PYINT), kind="scalar", ivl=Interval(0, None)
            )
        if name == "min" and len(argvals) >= 2:
            his = [a.ivl.hi for a in argvals if a.ivl is not None and a.ivl.hi is not None]
            los = [a.ivl.lo for a in argvals if a.ivl is not None]
            lo = None
            if len(los) == len(argvals) and all(v is not None for v in los):
                lo = min(v for v in los if v is not None)
            return AbstractValue(
                dtypes=dtype_set(DType.PYINT),
                kind="scalar",
                ivl=Interval(lo, min(his) if his else None),
            )
        if name == "max" and len(argvals) >= 2:
            los = [a.ivl.lo for a in argvals if a.ivl is not None and a.ivl.lo is not None]
            his = [a.ivl.hi for a in argvals if a.ivl is not None]
            hi = None
            if len(his) == len(argvals) and all(v is not None for v in his):
                hi = max(v for v in his if v is not None)
            return AbstractValue(
                dtypes=dtype_set(DType.PYINT),
                kind="scalar",
                ivl=Interval(max(los) if los else None, hi),
            )
        if name in ("int", "abs"):
            src = argvals[0] if argvals else UNKNOWN
            return AbstractValue(
                dtypes=dtype_set(DType.PYINT),
                kind="scalar",
                domain=src.domain,
                ivl=src.ivl if name == "int" else None,
            )
        if name == "float":
            return AbstractValue(dtypes=dtype_set(DType.PYFLOAT), kind="scalar")
        if name == "bool":
            return AbstractValue(dtypes=dtype_set(DType.BOOL), kind="scalar")
        if name in ("list", "sorted", "tuple", "set", "reversed"):
            src = argvals[0] if argvals else UNKNOWN
            return AbstractValue(kind="iter", elem=_elem_of(src))
        if name in ("enumerate", "zip", "dict"):
            return AbstractValue(kind="iter")
        return None

    def _summary_call(
        self,
        node: ast.Call,
        name: str,
        argvals: list[AbstractValue],
        report: bool,
    ) -> AbstractValue:
        summary = self.summaries.get(name)
        if summary is None:
            return UNKNOWN
        if report and summary.params:
            for i, value in enumerate(argvals):
                if i >= len(summary.params):
                    break
                expected = classify_param_name(summary.params[i])
                if (
                    expected is not None
                    and value.domain is not None
                    and value.domain != expected
                ):
                    self._flag(
                        node.args[i],
                        "REPRO011",
                        f"argument {i + 1} to {name}() binds parameter "
                        f"'{summary.params[i]}' (a {expected.value}) but "
                        f"carries a {value.domain.value}",
                    )
        return summary.returns


class _Anchor:
    """A synthetic AST-node stand-in carrying just a source position."""

    def __init__(self, line: int, col: int) -> None:
        self.lineno = line
        self.col_offset = col


_OP_NAMES: dict[type[ast.operator], str] = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.BitAnd: "&",
    ast.BitOr: "|",
    ast.BitXor: "^",
    ast.LShift: "<<",
    ast.RShift: ">>",
}


def _const_value(value: object) -> AbstractValue:
    if isinstance(value, bool):
        return AbstractValue(
            dtypes=dtype_set(DType.BOOL), kind="scalar", ivl=Interval.point(int(value))
        )
    if isinstance(value, int):
        return AbstractValue(
            dtypes=dtype_set(DType.PYINT), kind="scalar", ivl=Interval.point(value)
        )
    if isinstance(value, float):
        return AbstractValue(dtypes=dtype_set(DType.PYFLOAT), kind="scalar")
    if isinstance(value, str):
        return AbstractValue(kind="scalar", tag=f"const:{value}" if len(value) <= 8 else None)
    return AbstractValue(kind="scalar")


def _elem_of(value: AbstractValue) -> AbstractValue:
    if value.elem is not None:
        return value.elem
    if value.kind == "array":
        return AbstractValue(
            dtypes=value.dtypes, kind="scalar", domain=value.domain, ivl=value.ivl
        )
    return UNKNOWN


def _cast(src: AbstractValue, dtypes: frozenset[DType] | None) -> AbstractValue:
    return AbstractValue(
        dtypes=dtypes, kind="scalar" if src.kind != "array" else "array",
        domain=src.domain, ivl=src.ivl,
    )


def _promote_sets(
    a: frozenset[DType] | None, b: frozenset[DType] | None
) -> frozenset[DType] | None:
    if a is None or b is None:
        return None
    out: set[DType] = set()
    for x in a:
        for y in b:
            p = promote(x, y)
            if p is None:
                return None
            out.add(p)
    if len(out) > 4:
        return None
    return frozenset(out)


def _disjoint_int_widths(
    a: frozenset[DType] | None, b: frozenset[DType] | None
) -> bool:
    if not a or not b:
        return False
    if not all(d.is_fixed_width and d.is_integer for d in a):
        return False
    if not all(d.is_fixed_width and d.is_integer for d in b):
        return False
    return not ({d.width for d in a} & {d.width for d in b})


def _fmt_dtypes(dtypes: frozenset[DType] | None) -> str:
    if not dtypes:
        return "unknown"
    return "|".join(sorted(d.value for d in dtypes))


# ---------------------------------------------------------------------------
# Per-file driver, fingerprints, baseline, cache, SARIF
# ---------------------------------------------------------------------------


def analyze_source(
    source: str,
    path: Path,
    summaries: dict[str, Summary] | None = None,
    select: Iterable[str] | None = None,
) -> list[LintFinding]:
    """Run the flow analyses over one file's source text."""
    module = _module_key(path, source)
    tree = ast.parse(source, filename=str(path))
    if summaries is None:
        summaries = collect_summaries([tree])
    findings: list[LintFinding] = []
    try:
        findings.extend(
            _FunctionAnalyzer(module, str(path), summaries, tree.body, None).run()
        )
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(
                    _FunctionAnalyzer(
                        module, str(path), summaries, node.body, node.args
                    ).run()
                )
    except RecursionError:  # pragma: no cover - pathological nesting
        return []
    suppressed = _noqa_lines(source)
    selected = frozenset(select) if select is not None else None
    kept = []
    for finding in findings:
        if selected is not None and finding.rule not in selected:
            continue
        if finding.rule in suppressed.get(finding.line, frozenset()):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def finding_fingerprints(
    findings: Sequence[LintFinding], source: str, module: str
) -> list[str]:
    """Line-shift-robust fingerprints: hash of (module, rule, line *text*).

    A second identical finding on an identical line gets a ``-N`` suffix so
    baselines stay stable under reordering but distinct under duplication.
    """
    lines = source.splitlines()
    counts: dict[str, int] = {}
    fingerprints = []
    for finding in findings:
        text = lines[finding.line - 1].strip() if finding.line - 1 < len(lines) else ""
        digest = hashlib.sha1(
            f"{module}|{finding.rule}|{text}".encode()
        ).hexdigest()[:16]
        n = counts.get(digest, 0)
        counts[digest] = n + 1
        fingerprints.append(digest if n == 0 else f"{digest}-{n}")
    return fingerprints


def load_baseline(path: Path) -> dict[str, str]:
    """Parse a baseline file: ``<fingerprint>  <justification>`` per line."""
    accepted: dict[str, str] = {}
    if not path.exists():
        return accepted
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        accepted[parts[0]] = parts[1] if len(parts) > 1 else ""
    return accepted


def _load_cache(path: Path, digest: str) -> dict[str, object]:
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if (
        not isinstance(data, dict)
        or data.get("engine") != ENGINE_VERSION
        or data.get("summaries") != digest
    ):
        return {}
    files = data.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(path: Path, digest: str, files: dict[str, object]) -> None:
    payload = {"engine": ENGINE_VERSION, "summaries": digest, "files": files}
    try:
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    except OSError:  # pragma: no cover - read-only checkout
        pass


def analyze_paths(
    paths: Sequence[Path],
    select: Iterable[str] | None = None,
    cache_path: Path | None = None,
) -> list[tuple[LintFinding, str]]:
    """Analyze every ``.py`` file under ``paths``; returns (finding, fp).

    The summary table is collected over *all* files first so that calls
    into other modules resolve; the per-file cache key is the source hash
    plus the summary digest plus the engine version.
    """
    files = list(_iter_python_files(paths))
    sources: dict[Path, str] = {}
    trees: list[ast.Module] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        sources[file] = source
        try:
            trees.append(ast.parse(source, filename=str(file)))
        except SyntaxError:
            continue
    summaries = collect_summaries(trees)
    digest = summaries_digest(summaries)
    cached = _load_cache(cache_path, digest) if cache_path is not None else {}
    next_cache: dict[str, object] = {}
    results: list[tuple[LintFinding, str]] = []
    for file in files:
        source = sources[file]
        sha = hashlib.sha256(source.encode()).hexdigest()
        key = file.as_posix()
        entry = cached.get(key)
        if isinstance(entry, dict) and entry.get("sha") == sha:
            rows = entry.get("findings", [])
            file_results = [
                (LintFinding(str(file), r[0], r[1], r[2], r[3]), r[4])
                for r in rows  # type: ignore[index, misc]
            ]
        else:
            module = _module_key(file, source)
            try:
                findings = analyze_source(source, file, summaries=summaries)
            except SyntaxError:
                findings = []
            fingerprints = finding_fingerprints(findings, source, module)
            file_results = list(zip(findings, fingerprints))
        next_cache[key] = {
            "sha": sha,
            "findings": [
                [f.line, f.col, f.rule, f.message, fp] for f, fp in file_results
            ],
        }
        results.extend(file_results)
    if cache_path is not None:
        _save_cache(cache_path, digest, next_cache)
    if select is not None:
        selected = frozenset(select)
        results = [(f, fp) for f, fp in results if f.rule in selected]
    results.sort(key=lambda pair: (pair[0].path, pair[0].line, pair[0].col, pair[0].rule))
    return results


def write_sarif(results: Sequence[tuple[LintFinding, str]], out: Path) -> None:
    """Write findings as SARIF 2.1.0 for GitHub code-scanning upload."""
    sarif = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-flow",
                        "informationUri": "docs/ANALYSIS.md",
                        "version": str(ENGINE_VERSION),
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {"text": RULES.get(rule, rule)},
                            }
                            for rule in FLOW_RULES
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": finding.rule,
                        "level": "error",
                        "message": {"text": finding.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": Path(finding.path).as_posix()
                                    },
                                    "region": {
                                        "startLine": finding.line,
                                        "startColumn": finding.col,
                                    },
                                }
                            }
                        ],
                        "partialFingerprints": {"reproFlow/v1": fingerprint},
                    }
                    for finding, fingerprint in results
                ],
            }
        ],
    }
    out.write_text(json.dumps(sarif, indent=2), encoding="utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis flow",
        description="Flow-sensitive dataflow analyses (REPRO009-REPRO011, REPRO013).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        type=lambda text: [part.strip().upper() for part in text.split(",") if part],
        default=None,
        help="comma-separated rule ids to enable (default: all flow rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--sarif", type=Path, default=None, help="write SARIF 2.1.0 to this path"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline file of accepted findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to accept every current finding",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=DEFAULT_CACHE,
        help=f"per-file result cache (default: {DEFAULT_CACHE})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in FLOW_RULES:
            print(f"{rule}  {RULES.get(rule, '')}")
        return 0

    paths = args.paths or [Path("src/repro")]
    for path in paths:
        if not path.exists():
            parser.error(f"path does not exist: {path}")
    if args.select:
        unknown = [rule for rule in args.select if rule not in FLOW_RULES]
        if unknown:
            parser.error(f"unknown flow rule id(s): {', '.join(unknown)}")

    cache_path = None if args.no_cache else args.cache
    results = analyze_paths(paths, select=args.select, cache_path=cache_path)
    baseline = load_baseline(args.baseline)

    if args.write_baseline:
        lines = [
            "# repro-flow baseline: accepted findings, one per line as",
            "#   <fingerprint>  <justification>",
            "# Regenerate with: python -m repro.analysis flow --write-baseline",
        ]
        for finding, fingerprint in results:
            note = baseline.get(fingerprint, "") or f"TODO justify: {finding.format()}"
            lines.append(f"{fingerprint}  {note}")
        args.baseline.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(results)} accepted finding(s) to {args.baseline}")
        return 0

    fresh = [(f, fp) for f, fp in results if fp not in baseline]
    if args.sarif is not None:
        write_sarif(fresh, args.sarif)
    for finding, _ in fresh:
        print(finding.format())
    suppressed = len(results) - len(fresh)
    if fresh:
        print(f"{len(fresh)} finding(s) ({suppressed} baselined)")
        return 1
    if suppressed:
        print(f"clean ({suppressed} baselined finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
