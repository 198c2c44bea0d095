"""Tests for the project-specific AST linter (``repro.analysis.lint``).

Every rule is exercised from both sides through the fixture corpus in
``tests/lint_fixtures/`` (a ``# lint-module:`` header pins each fixture to
the library module it impersonates), and the whole ``src/repro`` tree is
asserted lint-clean — the same gate CI runs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import (
    AST_RULES,
    FLOW_RULE_IDS,
    RULES,
    LintFinding,
    lint_file,
    lint_paths,
    main,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: rule id -> (violation fixture, minimum expected findings of that rule)
#: The flow rules (REPRO009-011, REPRO013) have their own corpus in test_flow.py.
VIOLATIONS = {
    "REPRO000": ("repro000_violation.py", 2),
    "REPRO001": ("repro001_violation.py", 3),
    "REPRO002": ("repro002_violation.py", 2),
    "REPRO003": ("repro003_violation.py", 4),
    "REPRO004": ("repro004_violation.py", 2),
    "REPRO005": ("repro005_violation.py", 2),
    "REPRO006": ("repro006_violation.py", 1),
    "REPRO007": ("repro007_violation.py", 4),
    "REPRO008": ("repro008_violation.py", 5),
    "REPRO014": ("repro014_violation.py", 4),
}

CLEAN = {
    "REPRO000": "repro000_clean.py",
    "REPRO001": "repro001_clean.py",
    "REPRO002": "repro002_clean.py",
    "REPRO003": "repro003_clean.py",
    "REPRO004": "repro004_clean.py",
    "REPRO005": "repro005_clean.py",
    "REPRO006": "repro006_clean.py",
    "REPRO007": "repro007_clean.py",
    "REPRO008": "repro008_clean.py",
    "REPRO014": "repro014_clean.py",
}


def test_catalog_partitions_cleanly():
    # Every cataloged rule is either an AST rule (checked here) or a flow
    # rule (checked by repro.analysis.flow / test_flow.py) — never both.
    assert AST_RULES | FLOW_RULE_IDS == set(RULES)
    assert not (AST_RULES & FLOW_RULE_IDS)
    assert sorted(AST_RULES) == sorted(VIOLATIONS) == sorted(CLEAN)


@pytest.mark.parametrize("rule", sorted(VIOLATIONS))
def test_rule_flags_violation_fixture(rule):
    name, expected = VIOLATIONS[rule]
    findings = lint_file(FIXTURES / name)
    hits = [f for f in findings if f.rule == rule]
    assert len(hits) >= expected, [f.format() for f in findings]
    # Fixtures are crafted to violate exactly one rule.
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize("rule", sorted(CLEAN))
def test_rule_passes_clean_fixture(rule):
    findings = lint_file(FIXTURES / CLEAN[rule])
    assert findings == [], [f.format() for f in findings]


def test_finding_location_is_precise():
    findings = lint_file(FIXTURES / "repro002_violation.py", select=["REPRO002"])
    scalar = next(f for f in findings if "1 << label" in f.message)
    # `return 1 << label` lives on line 10 of the fixture, shift at col 12.
    assert scalar.line == 10
    assert scalar.col == 12
    assert scalar.path.endswith("repro002_violation.py")
    formatted = scalar.format()
    assert formatted.startswith(f"{scalar.path}:10:12: REPRO002")


def test_select_filters_rules():
    path = FIXTURES / "repro003_violation.py"
    everything = lint_file(path)
    only_random = lint_file(path, select=["REPRO003"])
    assert {f.rule for f in only_random} == {"REPRO003"}
    assert lint_file(path, select=["REPRO006"]) == []
    assert len(everything) >= len(only_random)


def test_noqa_suppresses_named_rule():
    assert lint_file(FIXTURES / "noqa_clean.py") == []


def test_bare_noqa_no_longer_suppresses(tmp_path):
    # The old blanket-suppression behavior is gone: the underlying rule
    # still fires AND the bare noqa itself is a REPRO000 finding.
    path = tmp_path / "scratch.py"
    path.write_text("mask = 1 << label  # noqa\n", encoding="utf-8")
    assert {f.rule for f in lint_file(path)} == {"REPRO000", "REPRO002"}


def test_cli_rejects_flow_rule_select():
    with pytest.raises(SystemExit):
        main([str(FIXTURES), "--select", "REPRO009"])


def test_lint_module_pin_controls_identity(tmp_path):
    source = "def _mask_of(label: int) -> int:\n    return 1 << label\n"
    unpinned = tmp_path / "scratch.py"
    unpinned.write_text(source, encoding="utf-8")
    # Outside the repro package, mask discipline still applies by default...
    assert {f.rule for f in lint_file(unpinned)} == {"REPRO002"}
    # ...but pinning to the owning module grants the exemption.
    pinned = tmp_path / "labelsets_like.py"
    pinned.write_text("# lint-module: repro/graph/labelsets.py\n" + source,
                      encoding="utf-8")
    assert lint_file(pinned) == []


def test_src_tree_is_lint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_exit_codes_and_output(capsys):
    bad = str(FIXTURES / "repro001_violation.py")
    assert main([bad]) == 1
    out = capsys.readouterr().out
    assert "REPRO001" in out
    assert "finding(s)" in out

    good = str(FIXTURES / "repro001_clean.py")
    assert main([good]) == 0
    assert capsys.readouterr().out == ""


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_cli_select(capsys):
    bad = str(FIXTURES / "repro003_violation.py")
    assert main([bad, "--select", "repro006"]) == 0
    capsys.readouterr()
    assert main([bad, "--select", "REPRO003"]) == 1
    assert "REPRO003" in capsys.readouterr().out


def test_cli_rejects_unknown_rule():
    with pytest.raises(SystemExit):
        main([str(FIXTURES), "--select", "REPRO999"])


def test_findings_are_sorted_and_hashable():
    findings = lint_file(FIXTURES / "repro003_violation.py")
    assert findings == sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule)
    )
    assert all(isinstance(hash(f), int) for f in findings)
    assert isinstance(findings[0], LintFinding)
