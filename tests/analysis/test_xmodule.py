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
    def test_all_five_rules_registered(self):
        assert set(PROJECT_RULES) >= {
            "metrics-drift",
            "cli-doc-drift",
            "fork-safety",
            "error-taxonomy-reachability",
            "checkpoint-schema-drift",
        }

    def test_select_and_ignore(self):
        only = active_project_rules(select=["fork-safety"])
        assert [rule.rule_id for rule in only] == ["fork-safety"]
        rest = active_project_rules(ignore=["fork-safety"])
        assert "fork-safety" not in {rule.rule_id for rule in rest}

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


GOOD_WORKER = {
    "pool.worker": """
        _LIMITS = {"max": 100}

        def _work(job):
            seen = {}
            seen[job] = job * 2
            return seen[job] + _LIMITS["max"]

        def run(pool, jobs):
            return pool.map(_work, jobs)
    """,
}


class TestForkSafety:
    def test_clean_worker_passes(self):
        # _LIMITS is a module-level dict, but nothing mutates it: a
        # frozen constant in all but type, so it must not be flagged.
        assert run_rule("fork-safety", GOOD_WORKER) == []

    def test_worker_mutating_module_cache(self):
        sources = {
            "pool.worker": """
                _CACHE = {}

                def _work(job):
                    if job in _CACHE:
                        return _CACHE[job]
                    _CACHE[job] = job * 2
                    return _CACHE[job]

                def run(pool, jobs):
                    return pool.map(_work, jobs)
            """,
        }
        findings = run_rule("fork-safety", sources)
        assert any("_CACHE" in f.message for f in findings)
        assert any("assigns into" in f.message for f in findings)

    def test_worker_global_rebind(self):
        sources = {
            "pool.worker": """
                _COUNT = 0

                def _work(job):
                    global _COUNT
                    _COUNT = _COUNT + 1
                    return job

                def run(pool, jobs):
                    return pool.map(_work, jobs)
            """,
        }
        findings = run_rule("fork-safety", sources)
        assert any("rebinds module global '_COUNT'" in f.message
                   for f in findings)

    def test_reachability_through_helper(self):
        sources = {
            "pool.worker": """
                _STATE = []

                def _helper(job):
                    _STATE.append(job)
                    return job

                def _work(job):
                    return _helper(job)

                def run(pool, jobs):
                    return pool.map(_work, jobs)
            """,
        }
        findings = run_rule("fork-safety", sources)
        assert any("_STATE" in f.message and "in place" in f.message
                   for f in findings)

    def test_mutation_after_ship(self):
        sources = {
            "pool.driver": """
                def _work(job):
                    return job

                def dispatch(pool, jobs):
                    pool.map_async(_work, jobs)
                    jobs.append("sentinel")
            """,
        }
        findings = run_rule("fork-safety", sources)
        assert any("dispatched to the worker pool" in f.message
                   and "'jobs'" in f.message for f in findings)

    def test_mutation_before_ship_is_fine(self):
        sources = {
            "pool.driver": """
                def _work(job):
                    return job

                def dispatch(pool, jobs):
                    jobs.append("sentinel")
                    return pool.map_async(_work, jobs)
            """,
        }
        assert run_rule("fork-safety", sources) == []

    def test_mutation_after_transitive_ship(self):
        # jobs flows through _send before reaching the pool; the
        # fixpoint must still see the later append as post-dispatch.
        sources = {
            "pool.driver": """
                def _work(job):
                    return job

                def _send(pool, items):
                    return pool.map(_work, items)

                def dispatch(pool, jobs):
                    handle = _send(pool, jobs)
                    jobs.append("sentinel")
                    return handle
            """,
        }
        findings = run_rule("fork-safety", sources)
        assert any("dispatched to the worker pool" in f.message
                   for f in findings)

    #: A persistent worker entered through ``Process(target=…)`` that
    #: registers what it attached in a module-level dict.
    PROCESS_WORKER = """
        from multiprocessing import Process

        _LIVE_SEGMENTS = {}

        def _attach(name):
            _LIVE_SEGMENTS[name] = object()

        def _shm_worker_main(shard, jobs):
            _attach(f"segment-{shard}")

        def start(shard, jobs):
            worker = Process(target=_shm_worker_main, args=(shard, jobs))
            worker.start()
            return worker
    """

    def test_process_target_is_a_boundary_seed(self):
        findings = run_rule(
            "fork-safety", {"pool.worker": self.PROCESS_WORKER}
        )
        assert any("'_attach' assigns into module-level '_LIVE_SEGMENTS'"
                   in f.message for f in findings)

    def test_allowlisted_worker_table_global(self):
        # Same source, but in the module whose per-process registry is
        # on FORK_SAFE_GLOBALS.
        assert run_rule(
            "fork-safety", {"repro.engine.shm": self.PROCESS_WORKER}
        ) == []


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


class TestSuppressions:
    def test_inline_ignore_covers_project_findings(self):
        sources = {
            "pool.driver": """
                def _work(job):
                    return job

                def dispatch(pool, jobs):
                    pool.map_async(_work, jobs)
                    jobs.append("x")  # lint: ignore[fork-safety] -- test rig
            """,
        }
        assert run_rule("fork-safety", sources) == []

    def test_findings_sorted_and_deduped(self):
        sources = {
            "pool.driver": """
                def _work(job):
                    return job

                def dispatch(pool, jobs):
                    pool.map_async(_work, jobs)
                    jobs.append("x")
            """,
        }
        project = project_from(sources)
        rule = PROJECT_RULES["fork-safety"]
        findings = analyze_project(project, [rule, rule])
        keys = [(f.path, f.line, f.rule_id, f.message) for f in findings]
        assert len(keys) == len(set(keys))
