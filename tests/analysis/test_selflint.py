"""The gate the CI job enforces: the tree lints clean at head."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.core import RULES, ProjectRule, active_rules, lint_paths

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.skipif(not SRC.is_dir(), reason="src/ layout not present")
def test_src_tree_lints_clean():
    """One pass, as ``repro-lint src`` runs it: every module rule and
    every cross-module rule, with README/DESIGN as the CLI docs."""
    docs = [
        doc
        for doc in (SRC.parent / "README.md", SRC.parent / "DESIGN.md")
        if doc.is_file()
    ]
    findings = lint_paths([SRC], docs=docs)
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_at_least_eight_rules_are_active():
    rules = active_rules()
    assert len(rules) == len(RULES)
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    assert len(rules) - len(project_rules) >= 8
    assert len(project_rules) >= 3
