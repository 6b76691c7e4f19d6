"""Cross-module rules: a good/bad fixture pair per rule.

Each fixture is a tiny in-memory project — sources keyed by dotted
module name — so every rule is exercised against exactly the drift it
exists to catch, plus the clean twin that must stay silent.
"""

import textwrap
from typing import Dict, Optional

import pytest

from repro.analysis.core import (
    RULES,
    LintModule,
    ProjectRule,
    active_rules,
    lint_modules,
)


def modules_from(sources: Dict[str, str]):
    return [
        LintModule(
            textwrap.dedent(source),
            path=f"src/{name.replace('.', '/')}.py",
            module=name,
        )
        for name, source in sources.items()
    ]


def run_rule(rule_id, sources, docs: Optional[Dict[str, str]] = None):
    return lint_modules(modules_from(sources), [RULES[rule_id]], docs)


class TestRegistry:
    def test_all_three_project_rules_registered(self):
        project_rules = {
            rule.rule_id
            for rule in active_rules()
            if isinstance(rule, ProjectRule)
        }
        assert project_rules == {
            "cli-doc-drift",
            "error-taxonomy-reachability",
        }

    def test_select_and_ignore(self):
        only = active_rules(select=["cli-doc-drift"])
        assert [rule.rule_id for rule in only] == ["cli-doc-drift"]
        rest = active_rules(ignore=["cli-doc-drift"])
        assert "cli-doc-drift" not in {rule.rule_id for rule in rest}

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            active_rules(select=["no-such-rule"])


CLI_SOURCE = {
    "tool.cli": """
        import argparse

        def build():
            parser = argparse.ArgumentParser()
            parser.add_argument("--scale", type=float)
            return parser
    """,
}


class TestCliDocDrift:
    def test_documented_flag_is_clean(self):
        docs = {"README.md": "Run with --scale 2.0 to double the load."}
        assert run_rule("cli-doc-drift", CLI_SOURCE, docs=docs) == []

    def test_undocumented_flag_flagged(self):
        docs = {"README.md": "Nothing to see here."}
        findings = run_rule("cli-doc-drift", CLI_SOURCE, docs=docs)
        assert any("'--scale'" in f.message and "not documented" in f.message
                   for f in findings)

    def test_stale_doc_flag_flagged_at_doc_line(self):
        docs = {"README.md": "Use --scale freely.\nAlso try --warp today."}
        findings = run_rule("cli-doc-drift", CLI_SOURCE, docs=docs)
        stale = [f for f in findings if "'--warp'" in f.message]
        assert stale and stale[0].path == "README.md"
        assert stale[0].line == 2

    def test_external_flags_allowlisted(self):
        docs = {"README.md": "Mentions --scale and pytest's --benchmark-only."}
        assert run_rule("cli-doc-drift", CLI_SOURCE, docs=docs) == []

    def test_no_docs_means_silent(self):
        assert run_rule("cli-doc-drift", CLI_SOURCE) == []

    def test_prefix_match_does_not_count_as_documented(self):
        docs = {"README.md": "There is a --scale-factor flag."}
        findings = run_rule("cli-doc-drift", CLI_SOURCE, docs=docs)
        assert any("'--scale'" in f.message and "not documented" in f.message
                   for f in findings)


GOOD_ERRORS = {
    "pkg.errors": """
        __all__ = ["Base", "Boom", "DriftWarning"]


        class Base(Exception):
            pass


        class Boom(Base):
            pass


        class DriftWarning(UserWarning):
            pass
    """,
    "pkg.user": """
        import warnings

        from pkg.errors import Boom, DriftWarning

        def fail():
            raise Boom("no")

        def nag():
            warnings.warn("drifting", DriftWarning)
    """,
}


class TestErrorTaxonomy:
    def test_good_taxonomy_is_clean(self):
        assert run_rule("error-taxonomy-reachability", GOOD_ERRORS) == []

    def test_unreachable_class(self):
        sources = dict(GOOD_ERRORS)
        sources["pkg.errors"] = GOOD_ERRORS["pkg.errors"].replace(
            '__all__ = ["Base", "Boom", "DriftWarning"]',
            '__all__ = ["Base", "Boom", "DriftWarning", "Silent"]\n\n\n'
            "        class Silent(Exception):\n            pass",
        )
        findings = run_rule("error-taxonomy-reachability", sources)
        assert any("'Silent'" in f.message and "never raised" in f.message
                   for f in findings)

    def test_missing_from_all(self):
        sources = dict(GOOD_ERRORS)
        sources["pkg.errors"] = GOOD_ERRORS["pkg.errors"] + (
            "\n\n        class Hidden(Base):\n            pass\n"
        )
        sources["pkg.user"] = GOOD_ERRORS["pkg.user"] + (
            "\n\n        def hide():\n            raise Hidden()\n"
        )
        findings = run_rule("error-taxonomy-reachability", sources)
        assert any("'Hidden'" in f.message and "__all__" in f.message
                   for f in findings)

    def test_stale_export(self):
        sources = dict(GOOD_ERRORS)
        sources["pkg.errors"] = GOOD_ERRORS["pkg.errors"].replace(
            '"DriftWarning"]', '"DriftWarning", "Ghost"]'
        )
        findings = run_rule("error-taxonomy-reachability", sources)
        stale = [f for f in findings if "'Ghost'" in f.message]
        assert stale and "stale export" in stale[0].message
        assert stale[0].line == 1

    def test_non_errors_modules_ignored(self):
        sources = {
            "pkg.shapes": """
                class Circle:
                    pass
            """,
        }
        assert run_rule("error-taxonomy-reachability", sources) == []


class TestSuppressions:
    def test_inline_ignore_covers_project_findings(self):
        silent = "class Silent(Exception):\n            pass"
        loud = dict(GOOD_ERRORS)
        loud["pkg.errors"] = GOOD_ERRORS["pkg.errors"] + "\n        " + silent
        assert run_rule("error-taxonomy-reachability", loud) != []
        quiet = dict(GOOD_ERRORS)
        quiet["pkg.errors"] = GOOD_ERRORS["pkg.errors"] + "\n        " + (
            silent.replace(
                ":\n",
                ":  # lint: ignore[error-taxonomy-reachability] -- test rig\n",
            )
        )
        assert run_rule("error-taxonomy-reachability", quiet) == []

    def test_findings_sorted_and_deduped(self):
        sources = {
            "eng.errors": """
                __all__ = []


                class Lost(Exception):
                    pass


                class Gone(Exception):
                    pass
            """,
        }
        rule = RULES["error-taxonomy-reachability"]
        findings = lint_modules(modules_from(sources), [rule, rule])
        keys = [(f.path, f.line, f.rule_id, f.message) for f in findings]
        assert len(keys) == 4 and len(keys) == len(set(keys))
        assert keys == sorted(keys)
