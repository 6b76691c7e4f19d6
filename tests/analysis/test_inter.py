"""Good/bad fixture pairs for the interprocedural (``--inter``) rules.

Every bad fixture here is *interprocedural-only*: the defect is split
across a caller and a helper so the intraprocedural ``--flow`` pass is
provably blind to it (asserted alongside each family), while the
summary-based pass sees through the call.
"""

from __future__ import annotations

import textwrap
from typing import List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, LintModule
from repro.analysis.flow import analyze_flow, collect_specs
from repro.analysis.inter import (
    active_inter_rules,
    analyze_inter,
    build_inter_context,
    compute_summaries,
    dep_fingerprint,
)


def make_modules(
    *sources: Tuple[str, str],
) -> List[LintModule]:
    return [
        LintModule(
            textwrap.dedent(source),
            path=f"{module.rsplit('.', 1)[-1]}.py",
            module=module,
        )
        for module, source in sources
    ]


def run_inter(
    *sources: Tuple[str, str], rule_id: Optional[str] = None
) -> List[Finding]:
    modules = make_modules(*sources)
    rules = active_inter_rules(select=[rule_id]) if rule_id else None
    return analyze_inter(modules, rules)


def run_intra(*sources: Tuple[str, str]) -> List[Finding]:
    return analyze_flow(make_modules(*sources))


def ids(findings: Sequence[Finding]) -> List[str]:
    return [finding.rule_id for finding in findings]


# -- inter-resource-leak -----------------------------------------------------

HELPER_ACQUIRE_LEAK = """
    def open_log(path):
        return open(path, "a")

    def teardown(handle):
        handle.close()

    def publish(path, queue, payload):
        handle = open_log(path)
        queue.put(len(payload))
        teardown(handle)
    """


def test_inter_resource_leak_sees_through_helper_acquire_and_release():
    # The acquire is hidden in open_log() and the release in
    # teardown(); queue.put() between them can raise, leaking the
    # handle on the exception edge.
    findings = run_inter(
        ("repro.simnet.snippet", HELPER_ACQUIRE_LEAK),
        rule_id="inter-resource-leak",
    )
    assert ids(findings) == ["inter-resource-leak"]
    assert "handle" in findings[0].message
    assert "publish" in findings[0].message


def test_intraprocedural_pass_misses_the_helper_hidden_leak():
    # The old --flow pass never sees an acquire: open_log() is not an
    # open(...) call, and teardown(handle) reads as an escape.
    assert run_intra(("repro.simnet.snippet", HELPER_ACQUIRE_LEAK)) == []


def test_inter_resource_leak_quiet_with_try_finally_helper_release():
    findings = run_inter(
        (
            "repro.simnet.snippet",
            """
            def open_log(path):
                return open(path, "a")

            def teardown(handle):
                handle.close()

            def publish(path, queue, payload):
                handle = open_log(path)
                try:
                    queue.put(len(payload))
                finally:
                    teardown(handle)
            """,
        ),
        rule_id="inter-resource-leak",
    )
    assert findings == []


def test_inter_resource_leak_flags_helper_that_raises_before_release():
    # The helper does release — but only after a call that can raise, so
    # the caller's finally is not enough on the helper's exception edge.
    findings = run_inter(
        (
            "repro.simnet.snippet",
            """
            def flush_and_close(handle, sink):
                sink.write(handle.name)
                handle.close()

            def publish(path, sink):
                handle = open(path, "w")
                flush_and_close(handle, sink)
            """,
        ),
        rule_id="inter-resource-leak",
    )
    assert ids(findings) == ["inter-resource-leak"]


def test_inter_resource_leak_respects_ownership_transfer_clause():
    # FLOW_SPECS "transfers" marks hand-off points: the registry now
    # owns the widget, so the caller is clean without a release.
    findings = run_inter(
        (
            "repro.simnet.snippet",
            """
            FLOW_SPECS = (
                {
                    "rule": "resource-leak",
                    "resource": "tracked widget",
                    "acquire": ("make_widget",),
                    "release_methods": ("close",),
                    "transfers": ("adopt_widget",),
                },
            )

            def publish(size, registry):
                widget = make_widget(size)
                registry.adopt_widget(widget)
            """,
        ),
        rule_id="inter-resource-leak",
    )
    assert findings == []


def test_inter_resource_leak_crosses_module_boundaries():
    findings = run_inter(
        (
            "repro.simnet.logs",
            """
            def open_log(path):
                return open(path, "a")
            """,
        ),
        (
            "repro.simnet.driver",
            """
            from repro.simnet.logs import open_log

            def publish(path, queue):
                handle = open_log(path)
                queue.put(path)
                handle.close()
            """,
        ),
        rule_id="inter-resource-leak",
    )
    assert ids(findings) == ["inter-resource-leak"]
    assert findings[0].path == "driver.py"


# -- inter-wal-order ---------------------------------------------------------

HELPER_MUTATION_BEFORE_APPEND = """
    FLOW_SPECS = (
        {
            "rule": "wal-order",
            "functions": ("feed",),
            "append": ("_wal_append",),
        },
    )

    class Daemon:
        def _index(self, event):
            self._events.append(event)

        def _wal_append(self, event):
            self._wal.write(event)

        def feed(self, event):
            self._index(event)
            self._wal_append(event)
    """


def test_inter_wal_order_flags_helper_hidden_mutation_before_append():
    findings = run_inter(
        ("repro.simnet.snippet", HELPER_MUTATION_BEFORE_APPEND),
        rule_id="inter-wal-order",
    )
    assert ids(findings) == ["inter-wal-order"]
    assert "_index" in findings[0].message
    assert "_events" in findings[0].message


def test_intraprocedural_pass_misses_the_helper_hidden_mutation():
    # The old wal-order rule only sees direct self-attribute writes in
    # feed(); the mutation lives inside _index().
    assert (
        run_intra(("repro.simnet.snippet", HELPER_MUTATION_BEFORE_APPEND))
        == []
    )


def test_inter_wal_order_quiet_when_append_precedes_helper_mutation():
    findings = run_inter(
        (
            "repro.simnet.snippet",
            """
            FLOW_SPECS = (
                {
                    "rule": "wal-order",
                    "functions": ("feed",),
                    "append": ("_wal_append",),
                },
            )

            class Daemon:
                def _index(self, event):
                    self._events.append(event)

                def _wal_append(self, event):
                    self._wal.write(event)

                def feed(self, event):
                    self._wal_append(event)
                    self._index(event)
            """,
        ),
        rule_id="inter-wal-order",
    )
    assert findings == []


# -- summaries and fingerprints ----------------------------------------------


def _context(*sources: Tuple[str, str]):
    modules = make_modules(*sources)
    specs, _ = collect_specs(modules)
    return modules, build_inter_context(modules, specs)


def test_summaries_record_helper_release_and_ownership_return():
    modules, context = _context(
        ("repro.simnet.snippet", HELPER_ACQUIRE_LEAK)
    )
    teardown = context.summaries["repro.simnet.snippet:teardown"]
    assert teardown.releases_on_return
    maker = context.summaries["repro.simnet.snippet:open_log"]
    assert maker.returns_owned


def test_dep_fingerprint_tracks_out_of_module_callee_summaries():
    helper_v1 = (
        "repro.simnet.logs",
        """
        def teardown(handle):
            handle.close()
        """,
    )
    helper_v2 = (
        "repro.simnet.logs",
        """
        def teardown(handle):
            handle.flush()
        """,
    )
    caller = (
        "repro.simnet.driver",
        """
        from repro.simnet.logs import teardown

        def publish(handle, queue):
            queue.put(handle.name)
            teardown(handle)
        """,
    )
    modules_v1, context_v1 = _context(helper_v1, caller)
    modules_v2, context_v2 = _context(helper_v2, caller)
    driver_v1 = next(m for m in modules_v1 if m.module.endswith("driver"))
    driver_v2 = next(m for m in modules_v2 if m.module.endswith("driver"))
    assert dep_fingerprint(driver_v1, context_v1) != dep_fingerprint(
        driver_v2, context_v2
    )
    # The helper's own docstring/comment churn keeps the fingerprint.
    helper_v1_commented = (
        helper_v1[0],
        helper_v1[1].replace(
            "def teardown(handle):",
            'def teardown(handle):\n            """Release the handle."""',
        ),
    )
    modules_v3, context_v3 = _context(helper_v1_commented, caller)
    driver_v3 = next(m for m in modules_v3 if m.module.endswith("driver"))
    assert dep_fingerprint(driver_v1, context_v1) == dep_fingerprint(
        driver_v3, context_v3
    )


def test_recursive_helpers_reach_a_fixpoint():
    # Mutually recursive release helpers still converge and the caller
    # is credited with the release.
    findings = run_inter(
        (
            "repro.simnet.snippet",
            """
            def release_even(handle, depth):
                if depth > 0:
                    release_odd(handle, depth - 1)
                else:
                    handle.close()

            def release_odd(handle, depth):
                release_even(handle, depth)

            def publish(path):
                handle = open(path, "w")
                release_even(handle, 2)
            """,
        ),
        rule_id="inter-resource-leak",
    )
    assert findings == []


def test_unknown_callees_are_havocked_not_trusted():
    # A call the project cannot resolve must not be credited with the
    # release — the leak is still reported.
    findings = run_inter(
        (
            "repro.simnet.snippet",
            """
            from somewhere.external import mystery_cleanup

            def open_log(path):
                return open(path, "a")

            def publish(path):
                handle = open_log(path)
                mystery_cleanup()
            """,
        ),
        rule_id="inter-resource-leak",
    )
    assert ids(findings) == ["inter-resource-leak"]


def test_compute_summaries_is_deterministic():
    modules = make_modules(
        ("repro.simnet.snippet", HELPER_ACQUIRE_LEAK),
        ("repro.simnet.daemon", HELPER_MUTATION_BEFORE_APPEND),
    )
    specs, _ = collect_specs(modules)
    from repro.analysis.xmodule import Project

    def build():
        project = Project({m.module: m for m in modules})
        resource = [s for s in specs if type(s).__name__ == "ResourceSpec"]
        order = [s for s in specs if type(s).__name__ == "OrderSpec"]
        summaries = compute_summaries(project, resource, order)
        return {key: value.stable_repr() for key, value in summaries.items()}

    first = build()
    assert first == build()
    assert any("append:0" in rendered for rendered in first.values())
