"""Suppression-comment handling: coverage, reasons, and string safety."""

from __future__ import annotations

import textwrap
from typing import List

from repro.analysis.core import Finding, active_rules, lint_source

HOT = "repro.engine.snippet"


def run(source: str, module: str = HOT, rule_id: str = "") -> List[Finding]:
    rules = active_rules(select=[rule_id]) if rule_id else None
    return lint_source(
        textwrap.dedent(source), path="snippet.py", module=module, rules=rules
    )


def test_suppression_silences_matching_rule_on_its_line():
    findings = run(
        """
        import random

        def jitter():
            return random.random()  # lint: ignore[unseeded-random]
        """,
        rule_id="unseeded-random",
    )
    assert findings == []


def test_suppression_does_not_cover_other_rules():
    findings = run(
        """
        import time

        def stamp():
            return time.time()  # lint: ignore[unseeded-random]
        """,
        rule_id="wall-clock",
    )
    assert [finding.rule_id for finding in findings] == ["wall-clock"]


def test_suppression_does_not_leak_to_other_lines():
    findings = run(
        """
        import random

        def jitter():
            a = random.random()  # lint: ignore[unseeded-random]
            b = random.random()
            return a + b
        """,
        rule_id="unseeded-random",
    )
    assert len(findings) == 1
    assert findings[0].line == 6


def test_multiple_ids_in_one_comment():
    findings = run(
        """
        import random
        import time

        def jitter():
            return random.random() + time.time()  # lint: ignore[unseeded-random, wall-clock]
        """,
    )
    assert findings == []


def test_require_reason_rule_rejects_bare_suppression():
    findings = run(
        """
        def load(path):
            try:
                return open(path).read()
            except Exception:  # lint: ignore[broad-except]
                return None
        """,
        rule_id="broad-except",
    )
    assert len(findings) == 1
    assert "requires a reason" in findings[0].message


def test_require_reason_rule_accepts_reasoned_suppression():
    findings = run(
        """
        def load(path):
            try:
                return open(path).read()
            except Exception:  # lint: ignore[broad-except] -- last-ditch CLI guard, reported to stderr
                return None
        """,
        rule_id="broad-except",
    )
    assert findings == []


def test_lint_comment_inside_string_is_not_a_suppression():
    findings = run(
        """
        import random

        DOC = "# lint: ignore[unseeded-random]"

        def jitter():
            return random.random()
        """,
        rule_id="unseeded-random",
    )
    assert [finding.rule_id for finding in findings] == ["unseeded-random"]
