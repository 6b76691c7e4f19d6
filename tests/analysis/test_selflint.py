"""The gate the CI job enforces: the tree lints clean at head."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import RULES, active_rules, lint_paths

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.skipif(not SRC.is_dir(), reason="src/ layout not present")
def test_src_tree_lints_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_at_least_eight_rules_are_active():
    rules = active_rules()
    assert len(rules) >= 8
    assert len(rules) == len(RULES)


@pytest.mark.skipif(not SRC.is_dir(), reason="src/ layout not present")
def test_src_tree_is_clean_under_project_analysis():
    """The --project acceptance gate: zero cross-module findings at head."""
    from repro.analysis.xmodule import Project, analyze_project

    docs = [
        doc
        for doc in (SRC.parent / "README.md", SRC.parent / "DESIGN.md")
        if doc.is_file()
    ]
    project = Project.load([SRC], docs=docs)
    findings = analyze_project(project)
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_at_least_four_project_rules_are_active():
    from repro.analysis.xmodule import PROJECT_RULES, active_project_rules

    rules = active_project_rules()
    assert len(rules) >= 4
    assert len(rules) == len(PROJECT_RULES)


@pytest.mark.skipif(not SRC.is_dir(), reason="src/ layout not present")
def test_src_tree_is_clean_under_flow_analysis():
    """The --flow acceptance gate: zero path-sensitive findings at head."""
    from repro.analysis.flow import analyze_flow, load_flow_modules

    modules, errors = load_flow_modules([SRC])
    assert errors == []
    findings = analyze_flow(modules)
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_at_least_four_flow_rules_are_active():
    from repro.analysis.flow import FLOW_RULES, active_flow_rules

    rules = active_flow_rules()
    # flow-spec (malformed declarations) plus the three path-sensitive
    # lifecycle rules.
    assert len(rules) >= 4
    assert len(rules) == len(FLOW_RULES)


@pytest.mark.skipif(not SRC.is_dir(), reason="src/ layout not present")
def test_src_tree_is_clean_under_interprocedural_analysis():
    """The --inter acceptance gate: zero summary-based findings at head."""
    from repro.analysis.flow import load_flow_modules
    from repro.analysis.inter import analyze_inter

    modules, errors = load_flow_modules([SRC])
    assert errors == []
    findings = analyze_inter(modules)
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_at_least_two_inter_rules_are_active():
    from repro.analysis.inter import INTER_RULES, active_inter_rules

    rules = active_inter_rules()
    # inter-resource-leak, inter-wal-order
    assert len(rules) >= 2
    assert len(rules) == len(INTER_RULES)
