"""Good/bad fixture pairs for every path-sensitive rule.

The load-bearing case is the exception-edge-only leak: a per-module
open/close census is blind to it (both calls are present), while
`resource-leak` sees the `except` edge between them.
"""

from __future__ import annotations

import textwrap
from typing import List, Optional

from repro.analysis.core import Finding, LintModule
from repro.analysis.flow import (
    active_flow_rules,
    analyze_flow,
    collect_specs,
    flow_findings_for_module,
)


def run_flow(
    source: str,
    module: str = "repro.simnet.snippet",
    rule_id: Optional[str] = None,
    path: str = "snippet.py",
) -> List[Finding]:
    mod = LintModule(textwrap.dedent(source), path=path, module=module)
    rules = active_flow_rules(select=[rule_id]) if rule_id else None
    specs, spec_findings = collect_specs([mod])
    findings = list(spec_findings)
    findings.extend(flow_findings_for_module(mod, specs, rules))
    if rule_id:
        findings = [f for f in findings if f.rule_id == rule_id]
    return findings


def ids(findings: List[Finding]) -> List[str]:
    return [finding.rule_id for finding in findings]


# -- resource-leak ----------------------------------------------------------

EXCEPTION_EDGE_LEAK = """
    def publish(path, queue):
        handle = open(path, "w")
        queue.put(path)
        handle.close()
    """


def test_resource_leak_fires_on_exception_edge_only_leak():
    findings = run_flow(EXCEPTION_EDGE_LEAK, rule_id="resource-leak")
    assert ids(findings) == ["resource-leak"]
    assert "exception" in findings[0].message


def test_resource_leak_quiet_with_try_finally():
    findings = run_flow(
        """
        def publish(path, queue):
            handle = open(path, "w")
            try:
                queue.put(path)
            finally:
                handle.close()
        """,
        rule_id="resource-leak",
    )
    assert findings == []


def test_resource_leak_fires_on_early_return_path():
    findings = run_flow(
        """
        def load(path, flag):
            fh = open(path)
            if flag:
                return None
            data = fh.read()
            fh.close()
            return data
        """,
        rule_id="resource-leak",
    )
    assert ids(findings) == ["resource-leak"]


def test_resource_leak_quiet_when_with_manages_the_handle():
    findings = run_flow(
        """
        def load(path):
            with open(path) as fh:
                return fh.read()
        """,
        rule_id="resource-leak",
    )
    assert findings == []


def test_resource_leak_quiet_when_resource_escapes():
    # returned/stored resources transfer ownership: not ours to track
    findings = run_flow(
        """
        def acquire(path):
            fh = open(path)
            return fh
        """,
        rule_id="resource-leak",
    )
    assert findings == []


def test_resource_leak_tracks_init_attribute_on_exception_path():
    findings = run_flow(
        """
        class Handle:
            def __init__(self, path):
                self._file = open(path, "wb")
                self._file.write(header())
        """,
        rule_id="resource-leak",
    )
    assert ids(findings) == ["resource-leak"]
    assert "__init__" in findings[0].message


def test_resource_leak_quiet_when_init_guards_with_cleanup():
    findings = run_flow(
        """
        class Handle:
            def __init__(self, path):
                self._file = open(path, "wb")
                try:
                    self._file.write(header())
                except BaseException:
                    self._file.close()
                    raise
        """,
        rule_id="resource-leak",
    )
    assert findings == []


def test_resource_leak_honours_release_funcs_from_spec():
    findings = run_flow(
        """
        FLOW_SPECS = (
            {
                "rule": "resource-leak",
                "resource": "segment",
                "acquire": ("_create_segment",),
                "release_funcs": ("_release_segment",),
                "tuple_result": True,
            },
        )

        def bad(size):
            seg, leaked = _create_segment("t", size)
            seg.buf[:4] = payload()

        def good(size):
            seg, leaked = _create_segment("t", size)
            try:
                seg.buf[:4] = payload()
            finally:
                _release_segment(seg, True)
        """,
        rule_id="resource-leak",
    )
    assert len(findings) == 1
    assert "bad" in findings[0].message


# -- wal-order --------------------------------------------------------------

WAL_ORDER_SPEC = """
        FLOW_SPECS = (
            {
                "rule": "wal-order",
                "functions": ("feed",),
                "append": ("_wal_append",),
            },
        )
        """


def test_wal_order_fires_on_mutation_before_append():
    findings = run_flow(
        WAL_ORDER_SPEC
        + """
        class Daemon:
            def feed(self, event):
                self.events_consumed += 1
                self._wal_append(event)
        """,
        rule_id="wal-order",
    )
    assert ids(findings) == ["wal-order"]
    assert "events_consumed" in findings[0].message


def test_wal_order_fires_on_branch_skipping_append():
    findings = run_flow(
        WAL_ORDER_SPEC
        + """
        class Daemon:
            def feed(self, event):
                if event.urgent:
                    self._pending.append(event)
                    return
                self._wal_append(event)
                self._pending.append(event)
        """,
        rule_id="wal-order",
    )
    assert len(findings) == 1
    assert "_pending" in findings[0].message


def test_wal_order_quiet_when_append_dominates():
    findings = run_flow(
        WAL_ORDER_SPEC
        + """
        class Daemon:
            def feed(self, event):
                self._wal_append(event)
                self.events_consumed += 1
                self._pending.append(event)
        """,
        rule_id="wal-order",
    )
    assert findings == []


def test_wal_order_ignores_functions_outside_spec():
    findings = run_flow(
        WAL_ORDER_SPEC
        + """
        class Daemon:
            def replay(self, event):
                self.events_consumed += 1
        """,
        rule_id="wal-order",
    )
    assert findings == []


# -- unchecked-truncation ---------------------------------------------------


def test_unchecked_truncation_fires_on_swallowed_tally():
    findings = run_flow(
        """
        def parse(lines):
            report = ParseReport()
            out = []
            for line in lines:
                try:
                    out.append(decode(line))
                except ValueError:
                    report.skipped += 1
            return out
        """,
        module="repro.weblog.snippet",
        rule_id="unchecked-truncation",
    )
    assert ids(findings) == ["unchecked-truncation"]
    assert "skipped" in findings[0].message


def test_unchecked_truncation_quiet_when_report_returned():
    findings = run_flow(
        """
        def parse(lines):
            report = ParseReport()
            out = []
            for line in lines:
                try:
                    out.append(decode(line))
                except ValueError:
                    report.skipped += 1
            return out, report
        """,
        module="repro.weblog.snippet",
        rule_id="unchecked-truncation",
    )
    assert findings == []


def test_unchecked_truncation_quiet_when_report_is_parameter_alias():
    # the repo's parsers take an optional caller-held report: the caller
    # already owns the sink, so the tally is never droppable
    findings = run_flow(
        """
        def parse(lines, report=None):
            report = report if report is not None else ParseReport()
            out = []
            for line in lines:
                try:
                    out.append(decode(line))
                except ValueError:
                    report.skipped += 1
            return out
        """,
        module="repro.weblog.snippet",
        rule_id="unchecked-truncation",
    )
    assert findings == []


def test_unchecked_truncation_scoped_to_parser_packages():
    findings = run_flow(
        """
        def parse(lines):
            report = ParseReport()
            for line in lines:
                try:
                    decode(line)
                except ValueError:
                    report.skipped += 1
            return None
        """,
        module="repro.engine.snippet",
        rule_id="unchecked-truncation",
    )
    assert findings == []


# -- spec plumbing ----------------------------------------------------------


def test_malformed_spec_is_a_finding():
    findings = run_flow(
        """
        FLOW_SPECS = (
            {"rule": "resource-leak", "acquire": ("open",)},
        )
        """,
    )
    assert ids(findings) == ["flow-spec"]
    assert "resource" in findings[0].message


def test_non_literal_spec_is_a_finding():
    findings = run_flow(
        """
        NAME = "open"
        FLOW_SPECS = ({"rule": "resource-leak", "resource": "fh", "acquire": (NAME,)},)
        """,
    )
    assert ids(findings) == ["flow-spec"]


def test_unknown_spec_rule_is_a_finding():
    findings = run_flow(
        """
        FLOW_SPECS = ({"rule": "no-such-rule"},)
        """,
    )
    assert ids(findings) == ["flow-spec"]


def test_spec_scopes_to_declaring_module_by_default():
    spec_module = LintModule(
        textwrap.dedent(
            """
            FLOW_SPECS = (
                {
                    "rule": "resource-leak",
                    "resource": "widget",
                    "acquire": ("make_widget",),
                    "release_methods": ("destroy",),
                },
            )
            """
        ),
        path="a.py",
        module="repro.pkg_a.specs",
    )
    other = LintModule(
        textwrap.dedent(
            """
            def use():
                w = make_widget()
                w.frob()
            """
        ),
        path="b.py",
        module="repro.pkg_b.user",
    )
    findings = analyze_flow([spec_module, other])
    assert findings == []  # spec does not reach repro.pkg_b


def test_spec_modules_key_extends_scope():
    spec_module = LintModule(
        textwrap.dedent(
            """
            FLOW_SPECS = (
                {
                    "rule": "resource-leak",
                    "resource": "widget",
                    "acquire": ("make_widget",),
                    "release_methods": ("destroy",),
                    "modules": ("repro.pkg_b",),
                },
            )
            """
        ),
        path="a.py",
        module="repro.pkg_a.specs",
    )
    other = LintModule(
        textwrap.dedent(
            """
            def use():
                w = make_widget()
                w.frob()
            """
        ),
        path="b.py",
        module="repro.pkg_b.user",
    )
    findings = analyze_flow([spec_module, other])
    assert ids(findings) == ["resource-leak"]
    assert findings[0].path == "b.py"


# -- suppressions across passes ---------------------------------------------


def test_flow_finding_suppressed_by_lint_ignore_comment():
    findings = run_flow(
        """
        def load(path, flag):
            fh = open(path)  # lint: ignore[resource-leak] -- short probe
            if flag:
                return None
            data = fh.read()
            fh.close()
            return data
        """,
        rule_id="resource-leak",
    )
    assert findings == []


def test_flow_suppression_is_rule_specific():
    findings = run_flow(
        """
        def load(path, flag):
            fh = open(path)  # lint: ignore[some-other-rule]
            if flag:
                return None
            data = fh.read()
            fh.close()
            return data
        """,
        rule_id="resource-leak",
    )
    assert ids(findings) == ["resource-leak"]


def test_project_findings_honour_suppressions():
    # --project rules share the same suppression channel (the satellite
    # this PR closes): the identical stale export with an ignore
    # comment on its line stays out of the report
    from repro.analysis.xmodule import PROJECT_RULES, Project, analyze_project

    def project_with(class_line: str) -> Project:
        module = LintModule(
            textwrap.dedent(
                f"""
                __all__ = []

                {class_line}
                    pass
                """
            ),
            path="src/repro/errors.py",
            module="repro.errors",
        )
        return Project({"repro.errors": module})

    rule = [PROJECT_RULES["error-taxonomy-reachability"]]
    loud = analyze_project(project_with("class RealError(Exception):"), rule)
    assert any("RealError" in f.message for f in loud)
    quiet = analyze_project(
        project_with(
            "class RealError(Exception):"
            "  # lint: ignore[error-taxonomy-reachability]"
        ),
        rule,
    )
    assert all("RealError" not in f.message for f in quiet)
