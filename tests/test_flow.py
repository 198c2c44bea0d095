"""Tests for the flow-sensitive dataflow analyzer (``repro.analysis.flow``).

Covers four layers: the fixture corpus in ``tests/lint_fixtures/`` (one
clean + one violation file per flow rule, mirroring test_lint.py), the CFG
builder and fixpoint engine on synthetic programs (including
hypothesis-generated control flow), the baseline/fingerprint/cache
machinery, and the ``python -m repro.analysis flow`` CLI end to end.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.flow import (
    FLOW_RULES,
    analyze_paths,
    analyze_source,
    build_cfg,
    finding_fingerprints,
    load_baseline,
    main,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: rule id -> (violation fixture, exact {(line, col), ...} of its findings)
VIOLATIONS = {
    "REPRO009": ("repro009_violation.py", {(13, 12), (20, 18), (27, 12), (32, 5)}),
    "REPRO010": ("repro010_violation.py", {(11, 12), (15, 12)}),
    "REPRO011": ("repro011_violation.py", {(12, 35), (16, 48)}),
    "REPRO013": ("repro013_violation.py", {(13, 5), (18, 12), (24, 5)}),
}

CLEAN = {
    "REPRO009": "repro009_clean.py",
    "REPRO010": "repro010_clean.py",
    "REPRO011": "repro011_clean.py",
    "REPRO013": "repro013_clean.py",
}


def _analyze(path: Path, **kwargs):
    return analyze_source(path.read_text(encoding="utf-8"), path, **kwargs)


def test_corpus_covers_every_flow_rule():
    assert sorted(VIOLATIONS) == sorted(CLEAN) == sorted(FLOW_RULES)


@pytest.mark.parametrize("rule", sorted(VIOLATIONS))
def test_rule_flags_violation_fixture(rule):
    name, expected = VIOLATIONS[rule]
    findings = _analyze(FIXTURES / name)
    # Fixtures are crafted to violate exactly one rule, at exact positions.
    assert {f.rule for f in findings} == {rule}, [f.format() for f in findings]
    assert {(f.line, f.col) for f in findings} == expected


@pytest.mark.parametrize("rule", sorted(CLEAN))
def test_rule_passes_clean_fixture(rule):
    findings = _analyze(FIXTURES / CLEAN[rule])
    assert findings == [], [f.format() for f in findings]


# ---------------------------------------------------------------------------
# CFG builder
# ---------------------------------------------------------------------------


def _cfg_of(source: str):
    import ast

    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body)


def test_cfg_straight_line_reaches_exit():
    blocks, entry, exit_, _ = _cfg_of("a = 1\nb = a\nc = b\n")
    # No calls anywhere: a single block holds all three ops.
    assert blocks[entry].ops
    assert exit_ in blocks[entry].succs
    assert not blocks[entry].exc_succs


def test_cfg_branch_joins():
    blocks, entry, exit_, _ = _cfg_of(
        """
        if a:
            b = 1
        else:
            b = 2
        c = b
        """
    )
    then_b, else_b = blocks[entry].succs
    # Both arms funnel into the join block that precedes exit.
    (join_from_then,) = blocks[then_b].succs
    (join_from_else,) = blocks[else_b].succs
    assert join_from_then == join_from_else
    assert exit_ in blocks[join_from_then].succs


def test_cfg_loop_has_back_edge():
    blocks, _, exit_, raise_exit = _cfg_of(
        """
        while a:
            a = a - 1
        """
    )
    # The loop body must jump backwards to the loop head (a lower block id
    # that is not one of the synthetic exit blocks).
    back = [
        (i, s)
        for i, b in enumerate(blocks)
        for s in b.succs
        if s <= i and s not in (exit_, raise_exit)
    ]
    assert back


def test_cfg_call_gets_exception_edge():
    blocks, _, _, raise_exit = _cfg_of("x = f()\n")
    raisers = [b for b in blocks if b.exc_succs]
    assert raisers and all(raise_exit in b.exc_succs for b in raisers)
    # May-raise statements are isolated: one op per raising block.
    assert all(len(b.ops) == 1 for b in raisers)


def test_cfg_cleanup_statement_does_not_raise():
    blocks, _, _, _ = _cfg_of("x.close()\nx.unlink()\n")
    assert not any(b.exc_succs for b in blocks)


def test_cfg_edges_are_well_formed():
    blocks, entry, exit_, raise_exit = _cfg_of(
        """
        try:
            x = f()
        except ValueError:
            x = None
        finally:
            g()
        return x
        """
    )
    n = len(blocks)
    for b in blocks:
        assert all(0 <= s < n for s in b.succs)
        assert all(0 <= s < n for s in b.exc_succs)
    assert {entry, exit_, raise_exit} <= set(range(n))


# ---------------------------------------------------------------------------
# Fixpoint engine on synthetic programs (hypothesis)
# ---------------------------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "c"])
_EXPRS = st.sampled_from(["0", "1", "a + 1", "b - a", "min(a, b)", "a"])
_ASSIGN = st.builds("{} = {}".format, _NAMES, _EXPRS)


def _block(stmts: list[str]) -> str:
    return textwrap.indent("\n".join(stmts) or "pass", "    ")


_STMT = st.deferred(
    lambda: st.one_of(
        _ASSIGN,
        st.builds(
            lambda cond, body, orelse: (
                f"if {cond} > 0:\n{_block(body)}\nelse:\n{_block(orelse)}"
            ),
            _NAMES,
            st.lists(_STMT, max_size=3),
            st.lists(_STMT, max_size=3),
        ),
        st.builds(
            lambda cond, body: f"while {cond} > 0:\n{_block(body)}",
            _NAMES,
            st.lists(_STMT, max_size=3),
        ),
        st.builds(
            lambda var, bound, body: f"for {var} in range({bound}):\n{_block(body)}",
            _NAMES,
            _NAMES,
            st.lists(_STMT, max_size=3),
        ),
    )
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_STMT, min_size=1, max_size=5))
def test_engine_terminates_on_generated_control_flow(stmts):
    source = "def f(a, b, c):\n" + _block(stmts) + "\n    return a\n"
    compile(source, "<gen>", "exec")  # the generator must emit valid Python
    blocks, _, _, _ = _cfg_of(source)
    n = len(blocks)
    assert all(0 <= s < n for b in blocks for s in b.succs + b.exc_succs)
    # The widening fixpoint must converge without findings: the generated
    # programs only do unit-free integer arithmetic.
    findings = analyze_source(source, Path("gen.py"))
    assert findings == []


def test_widening_handles_unbounded_counter():
    source = textwrap.dedent(
        """
        def f(n: int) -> int:
            total = 0
            while total < n:
                total = total + 1
            return total
        """
    )
    assert analyze_source(source, Path("gen.py")) == []


def test_dtype_join_reports_possible_narrowing():
    # After the branch join `idx` is {int32, int64}.  The analyzer cannot
    # see that source and target widths are correlated, so the cast is a
    # *may*-narrow finding — the exact scenario the inline noqas and the
    # baseline entry in perf/batched.py document.
    source = textwrap.dedent(
        """
        import numpy as np

        def f(wide: bool) -> "np.ndarray":
            idx = np.int64 if wide else np.int32
            rows = np.zeros(4, dtype=idx)
            return rows.astype(idx)
        """
    )
    findings = analyze_source(source, Path("gen.py"))
    assert [f.rule for f in findings] == ["REPRO009"]
    assert "int32|int64" in findings[0].message


def test_unknown_dtype_never_fires():
    # No information is not a finding: casting an array of unknown dtype
    # is silent, by design (the engine only reports when it can point at a
    # wider source width).
    source = textwrap.dedent(
        """
        import numpy as np

        def f(rows) -> "np.ndarray":
            return rows.astype(np.int32)
        """
    )
    assert analyze_source(source, Path("gen.py")) == []


def test_provable_narrowing_still_fires_after_join():
    source = textwrap.dedent(
        """
        import numpy as np

        def f(wide: bool) -> "np.ndarray":
            rows = np.zeros(4, dtype=np.int64)
            return rows.astype(np.int16)
        """
    )
    findings = analyze_source(source, Path("gen.py"))
    assert [f.rule for f in findings] == ["REPRO009"]


def test_container_escape_suppresses_leak():
    # Resources held by list elements escape when the container does.
    leaking = textwrap.dedent(
        """
        import numpy as np

        def f(paths):
            handles = [np.memmap(p, mode="w+", shape=(8,)) for p in paths]
        """
    )
    escaping = textwrap.dedent(
        """
        import numpy as np

        def f(paths):
            handles = [np.memmap(p, mode="w+", shape=(8,)) for p in paths]
            return handles
        """
    )
    assert {f.rule for f in analyze_source(leaking, Path("gen.py"))} == {"REPRO013"}
    assert analyze_source(escaping, Path("gen.py")) == []


def test_coded_noqa_suppresses_flow_finding():
    source = textwrap.dedent(
        """
        import numpy as np

        def f() -> "np.ndarray":
            rows = np.zeros(4, dtype=np.int64)
            return rows.astype(np.int32)  # noqa: REPRO009
        """
    )
    assert analyze_source(source, Path("gen.py")) == []


def test_select_filters_rules():
    path = FIXTURES / "repro013_violation.py"
    assert _analyze(path, select=["REPRO009"]) == []
    assert {f.rule for f in _analyze(path, select=["REPRO013"])} == {"REPRO013"}


# ---------------------------------------------------------------------------
# Fingerprints and baseline
# ---------------------------------------------------------------------------


def test_fingerprints_survive_line_shifts():
    path = FIXTURES / "repro010_violation.py"
    source = path.read_text(encoding="utf-8")
    before = finding_fingerprints(_analyze(path), source, "perf/scratch.py")
    shifted = "# a new leading comment\n\n" + source
    findings = analyze_source(shifted, path)
    after = finding_fingerprints(findings, shifted, "perf/scratch.py")
    assert before == after
    assert len(set(before)) == len(before)  # distinct per finding


def test_load_baseline_parses_comments_and_justifications(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(
        "# comment line\n"
        "\n"
        "deadbeef00000000  known quirk in chunk sizing\n"
        "cafebabe00000000  TODO justify\n",
        encoding="utf-8",
    )
    parsed = load_baseline(baseline)
    assert parsed == {
        "deadbeef00000000": "known quirk in chunk sizing",
        "cafebabe00000000": "TODO justify",
    }
    assert load_baseline(tmp_path / "missing.txt") == {}


def test_src_tree_is_flow_clean_modulo_baseline():
    # The same gate CI runs: every finding on src/repro must be baselined.
    results = analyze_paths([SRC])
    baseline = load_baseline(REPO / "flow-baseline.txt")
    fresh = [f.format() for f, fp in results if fp not in baseline]
    assert fresh == [], "\n".join(fresh)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_exit_codes_and_output(capsys, tmp_path):
    bad = str(FIXTURES / "repro009_violation.py")
    empty = str(tmp_path / "baseline.txt")
    assert main([bad, "--no-cache", "--baseline", empty]) == 1
    out = capsys.readouterr().out
    assert "REPRO009" in out
    assert "finding(s)" in out

    good = str(FIXTURES / "repro009_clean.py")
    assert main([good, "--no-cache", "--baseline", empty]) == 0
    assert capsys.readouterr().out == ""


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in FLOW_RULES:
        assert rule in out


def test_cli_select(capsys, tmp_path):
    bad = str(FIXTURES / "repro013_violation.py")
    empty = str(tmp_path / "baseline.txt")
    assert main([bad, "--no-cache", "--baseline", empty, "--select", "repro009"]) == 0
    capsys.readouterr()
    assert main([bad, "--no-cache", "--baseline", empty, "--select", "REPRO013"]) == 1


def test_cli_rejects_unknown_rule():
    with pytest.raises(SystemExit):
        main([str(FIXTURES), "--select", "REPRO001"])


def test_cli_rejects_missing_path():
    with pytest.raises(SystemExit):
        main(["definitely/not/a/path.py"])


def test_cli_sarif_output(capsys, tmp_path):
    bad = str(FIXTURES / "repro011_violation.py")
    sarif_path = tmp_path / "out.sarif"
    empty = str(tmp_path / "baseline.txt")
    assert main([bad, "--no-cache", "--baseline", empty, "--sarif", str(sarif_path)]) == 1
    capsys.readouterr()
    sarif = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "repro-flow"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(FLOW_RULES)
    assert len(run["results"]) == 2
    for result in run["results"]:
        assert result["ruleId"] == "REPRO011"
        assert result["partialFingerprints"]["reproFlow/v1"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] in {12, 16}


def test_cli_write_baseline_roundtrip(capsys, tmp_path):
    bad = str(FIXTURES / "repro013_violation.py")
    baseline = tmp_path / "baseline.txt"
    assert main([bad, "--no-cache", "--baseline", str(baseline), "--write-baseline"]) == 0
    capsys.readouterr()
    text = baseline.read_text(encoding="utf-8")
    assert "TODO justify:" in text
    # With every finding baselined the same invocation now passes...
    assert main([bad, "--no-cache", "--baseline", str(baseline)]) == 0
    assert "baselined finding(s)" in capsys.readouterr().out
    # ...and hand-written justifications survive a rewrite.
    fingerprint = next(
        line.split()[0] for line in text.splitlines() if not line.startswith("#")
    )
    baseline.write_text(f"{fingerprint}  reviewed: intentional fixture\n", "utf-8")
    assert main([bad, "--no-cache", "--baseline", str(baseline), "--write-baseline"]) == 0
    capsys.readouterr()
    assert "reviewed: intentional fixture" in baseline.read_text(encoding="utf-8")


def test_cli_cache_reuses_results(capsys, tmp_path):
    bad = str(FIXTURES / "repro010_violation.py")
    cache = tmp_path / "cache.json"
    empty = str(tmp_path / "baseline.txt")
    assert main([bad, "--cache", str(cache), "--baseline", empty]) == 1
    first = capsys.readouterr().out
    payload = json.loads(cache.read_text(encoding="utf-8"))
    assert payload["files"]
    # Second run hits the cache and reports identical findings.
    assert main([bad, "--cache", str(cache), "--baseline", empty]) == 1
    assert capsys.readouterr().out == first
    # A corrupt cache is discarded, not fatal.
    cache.write_text("{not json", encoding="utf-8")
    assert main([bad, "--cache", str(cache), "--baseline", empty]) == 1
