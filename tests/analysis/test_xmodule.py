"""Cross-module rules: a good/bad fixture pair per rule.

Each fixture is a tiny in-memory project — sources keyed by dotted
module name — so every rule is exercised against exactly the drift it
exists to catch, plus the clean twin that must stay silent.
"""

import textwrap
from typing import Dict, Optional

import pytest

from repro.analysis.core import LintModule
from repro.analysis.xmodule import (
    PROJECT_RULES,
    Project,
    active_project_rules,
    analyze_project,
)


def project_from(
    sources: Dict[str, str], docs: Optional[Dict[str, str]] = None
) -> Project:
    modules = {
        name: LintModule(
            textwrap.dedent(source),
            path=f"src/{name.replace('.', '/')}.py",
            module=name,
        )
        for name, source in sources.items()
    }
    return Project(modules, docs=docs)


def run_rule(rule_id, sources, docs=None):
    project = project_from(sources, docs=docs)
    return analyze_project(project, [PROJECT_RULES[rule_id]])


class TestRegistry:
    def test_all_four_rules_registered(self):
        assert set(PROJECT_RULES) == {
            "metrics-drift",
            "cli-doc-drift",
            "error-taxonomy-reachability",
            "checkpoint-schema-drift",
        }

    def test_select_and_ignore(self):
        only = active_project_rules(select=["metrics-drift"])
        assert [rule.rule_id for rule in only] == ["metrics-drift"]
        rest = active_project_rules(ignore=["metrics-drift"])
        assert "metrics-drift" not in {rule.rule_id for rule in rest}

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            active_project_rules(select=["no-such-rule"])


GOOD_METRICS = {
    "eng.metrics": """
        class EngineMetrics:
            def __init__(self):
                self.hits = 0

            def record_hit(self):
                self.hits += 1

            def snapshot(self):
                return {"hits": self.hits}

            def render(self):
                return "hits" + " = " + str(self.hits)
    """,
    "eng.driver": """
        def run(metrics):
            metrics.record_hit()
    """,
}


class TestMetricsDrift:
    def test_good_project_is_clean(self):
        assert run_rule("metrics-drift", GOOD_METRICS) == []

    def test_counter_never_incremented(self):
        sources = dict(GOOD_METRICS)
        sources["eng.metrics"] = GOOD_METRICS["eng.metrics"].replace(
            "self.hits = 0", "self.hits = 0\n                self.lost = 0"
        )
        findings = run_rule("metrics-drift", sources)
        assert any("'lost'" in f.message and "never" in f.message
                   for f in findings)

    def test_counter_missing_from_snapshot_and_render(self):
        sources = {
            "eng.metrics": """
                class EngineMetrics:
                    def __init__(self):
                        self.hits = 0

                    def record_hit(self):
                        self.hits += 1

                    def snapshot(self):
                        return {}

                    def render(self):
                        return "metrics"
            """,
            "eng.driver": GOOD_METRICS["eng.driver"],
        }
        messages = [f.message for f in run_rule("metrics-drift", sources)]
        assert any("snapshot()" in m for m in messages)
        assert any("render()" in m for m in messages)

    def test_stale_snapshot_key(self):
        sources = dict(GOOD_METRICS)
        sources["eng.metrics"] = GOOD_METRICS["eng.metrics"].replace(
            '{"hits": self.hits}', '{"hits": self.hits, "ghost": 0}'
        )
        findings = run_rule("metrics-drift", sources)
        assert any("'ghost'" in f.message and "stale" in f.message
                   for f in findings)

    def test_uncalled_record_method(self):
        sources = dict(GOOD_METRICS)
        sources["eng.driver"] = "def run(metrics):\n    pass\n"
        findings = run_rule("metrics-drift", sources)
        assert any("record_hit" in f.message and "never called" in f.message
                   for f in findings)


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


class TestCheckpointSchema:
    def test_matching_state_pair_is_clean(self):
        sources = {
            "ck.store": """
                class Box:
                    def __getstate__(self):
                        return (self.a, self.b)

                    def __setstate__(self, state):
                        self.a, self.b = state
            """,
        }
        assert run_rule("checkpoint-schema-drift", sources) == []

    def test_state_arity_mismatch(self):
        sources = {
            "ck.store": """
                class Box:
                    def __getstate__(self):
                        return (self.a, self.b, self.c)

                    def __setstate__(self, state):
                        self.a, self.b = state
            """,
        }
        findings = run_rule("checkpoint-schema-drift", sources)
        assert any("pickle round-trip breaks" in f.message for f in findings)


#: A __getstate__/__setstate__ pair whose tuple arities disagree.
DRIFTED_STATE = """
    class Box:
        def __getstate__(self):
            return (self.a, self.b, self.c)

        def __setstate__(self, state){suffix}
            self.a, self.b = state
"""


class TestSuppressions:
    def test_inline_ignore_covers_project_findings(self):
        loud = {"ck.store": DRIFTED_STATE.format(suffix=":")}
        assert run_rule("checkpoint-schema-drift", loud) != []
        sources = {
            "ck.store": DRIFTED_STATE.format(
                suffix=":  # lint: ignore[checkpoint-schema-drift] -- test rig"
            ),
        }
        assert run_rule("checkpoint-schema-drift", sources) == []

    def test_findings_sorted_and_deduped(self):
        sources = {"ck.store": DRIFTED_STATE.format(suffix=":")}
        project = project_from(sources)
        rule = PROJECT_RULES["checkpoint-schema-drift"]
        findings = analyze_project(project, [rule, rule])
        keys = [(f.path, f.line, f.rule_id, f.message) for f in findings]
        assert keys and len(keys) == len(set(keys))
