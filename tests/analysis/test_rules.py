"""Fixture-snippet suite: every rule fires on a bad snippet and stays
quiet on a good one.

``lint_source(..., module=...)`` opts the snippet into package-scoped
rules (hot-path, parser) without touching real files.
"""

from __future__ import annotations

import textwrap
from typing import List, Optional

from repro.analysis.core import RULES, Finding, active_rules, lint_source

HOT = "repro.engine.snippet"
COLD = "repro.simnet.snippet"
PARSER = "repro.weblog.snippet"


def run(source: str, module: str = COLD, rule_id: Optional[str] = None) -> List[Finding]:
    rules = active_rules(select=[rule_id]) if rule_id else None
    return lint_source(textwrap.dedent(source), path="snippet.py", module=module, rules=rules)


def ids(findings: List[Finding]) -> List[str]:
    return [finding.rule_id for finding in findings]


# -- unseeded-random -------------------------------------------------------


def test_unseeded_random_fires_on_hot_path_call():
    findings = run(
        """
        import random

        def jitter():
            return random.random()
        """,
        module=HOT,
        rule_id="unseeded-random",
    )
    assert ids(findings) == ["unseeded-random"]


def test_unseeded_random_fires_on_module_level_call_anywhere():
    findings = run(
        """
        import random

        SHUFFLE_KEY = random.random()
        """,
        module=COLD,
        rule_id="unseeded-random",
    )
    assert ids(findings) == ["unseeded-random"]


def test_unseeded_random_fires_on_from_import_in_hot_module():
    findings = run(
        "from random import choice\n", module=HOT, rule_id="unseeded-random"
    )
    assert ids(findings) == ["unseeded-random"]


def test_unseeded_random_quiet_on_blessed_plumbing():
    findings = run(
        """
        from repro.util.rng import make_rng

        def sample(seed):
            return make_rng(seed).random()
        """,
        module=HOT,
        rule_id="unseeded-random",
    )
    assert findings == []


def test_unseeded_random_quiet_on_annotation_only_use():
    # Optional[random.Random] in a signature is not a call.
    findings = run(
        """
        import random
        from typing import Optional

        def sample(rng: Optional[random.Random] = None):
            return rng
        """,
        module=HOT,
        rule_id="unseeded-random",
    )
    assert findings == []


def test_unseeded_random_exempts_rng_module_itself():
    findings = run(
        """
        import random

        def make_rng(seed):
            return random.Random(seed)
        """,
        module="repro.util.rng",
        rule_id="unseeded-random",
    )
    assert findings == []


def test_unseeded_random_quiet_on_function_scoped_call_in_cold_module():
    findings = run(
        """
        import random

        def noise():
            return random.random()
        """,
        module=COLD,
        rule_id="unseeded-random",
    )
    assert findings == []


# -- wall-clock ------------------------------------------------------------


def test_wall_clock_fires_in_hot_module():
    findings = run(
        """
        import time

        def stamp():
            return time.time()
        """,
        module=HOT,
        rule_id="wall-clock",
    )
    assert ids(findings) == ["wall-clock"]


def test_wall_clock_allows_perf_counter_and_cold_modules():
    good_hot = run(
        """
        import time

        def elapsed(start):
            return time.perf_counter() - start
        """,
        module=HOT,
        rule_id="wall-clock",
    )
    cold = run(
        """
        import time

        def stamp():
            return time.time()
        """,
        module=COLD,
        rule_id="wall-clock",
    )
    assert good_hot == []
    assert cold == []


# -- broad-except ----------------------------------------------------------


def test_broad_except_fires_on_swallowing_handler():
    findings = run(
        """
        def load(path):
            try:
                return open(path).read()
            except Exception:
                return None
        """,
        rule_id="broad-except",
    )
    assert ids(findings) == ["broad-except"]


def test_broad_except_fires_on_bare_except():
    findings = run(
        """
        def load(path):
            try:
                return open(path).read()
            except:
                return None
        """,
        rule_id="broad-except",
    )
    assert ids(findings) == ["broad-except"]


def test_broad_except_allows_reraise_and_taxonomy_wrap():
    findings = run(
        """
        from repro.errors import CheckpointCorruptError

        def load(path):
            try:
                return open(path).read()
            except Exception:
                raise

        def decode(raw):
            try:
                return raw.decode()
            except Exception as exc:
                raise CheckpointCorruptError(str(exc)) from exc
        """,
        rule_id="broad-except",
    )
    assert findings == []


def test_broad_except_quiet_on_concrete_exceptions():
    findings = run(
        """
        def load(path):
            try:
                return open(path).read()
            except (OSError, ValueError):
                return None
        """,
        rule_id="broad-except",
    )
    assert findings == []


# -- bare-raise-exception --------------------------------------------------


def test_bare_raise_exception_fires():
    findings = run(
        """
        def fail():
            raise Exception("boom")
        """,
        rule_id="bare-raise-exception",
    )
    assert ids(findings) == ["bare-raise-exception"]


def test_bare_raise_exception_quiet_on_specific_types():
    findings = run(
        """
        def fail():
            raise RuntimeError("boom")
        """,
        rule_id="bare-raise-exception",
    )
    assert findings == []


# -- silent-skip -----------------------------------------------------------


def test_silent_skip_fires_on_uncounted_continue_in_parser():
    findings = run(
        """
        def parse(lines):
            out = []
            for line in lines:
                try:
                    out.append(int(line))
                except ValueError:
                    continue
            return out
        """,
        module=PARSER,
        rule_id="silent-skip",
    )
    assert ids(findings) == ["silent-skip"]


def test_silent_skip_quiet_on_count_and_skip():
    findings = run(
        """
        def parse(lines, report):
            out = []
            for line in lines:
                try:
                    out.append(int(line))
                except ValueError:
                    report.malformed += 1
                    continue
            return out
        """,
        module=PARSER,
        rule_id="silent-skip",
    )
    assert findings == []


def test_silent_skip_scoped_to_parser_packages():
    findings = run(
        """
        def parse(lines):
            for line in lines:
                try:
                    int(line)
                except ValueError:
                    continue
        """,
        module=COLD,
        rule_id="silent-skip",
    )
    assert findings == []


# -- mutable-default -------------------------------------------------------


def test_mutable_default_fires_on_literal_and_constructor():
    findings = run(
        """
        def collect(into=[]):
            return into

        def index(table=dict()):
            return table
        """,
        rule_id="mutable-default",
    )
    assert ids(findings) == ["mutable-default", "mutable-default"]


def test_mutable_default_quiet_on_none_pattern():
    findings = run(
        """
        def collect(into=None):
            into = into if into is not None else []
            return into
        """,
        rule_id="mutable-default",
    )
    assert findings == []


# -- assert-validation -----------------------------------------------------


def test_assert_validation_fires_on_parameter_assert():
    findings = run(
        """
        def lookup(address):
            assert address >= 0, "negative address"
            return address
        """,
        rule_id="assert-validation",
    )
    assert ids(findings) == ["assert-validation"]


def test_assert_validation_allows_internal_invariants():
    findings = run(
        """
        _TABLE = None

        def lookup(address):
            assert _TABLE is not None, "not initialised"
            return _TABLE
        """,
        rule_id="assert-validation",
    )
    assert findings == []


# -- registry --------------------------------------------------------------


def test_catalogue_has_at_least_eight_rules():
    active_rules()  # force import
    assert len(RULES) >= 8


def test_every_rule_documents_itself():
    active_rules()
    for rule in RULES.values():
        assert rule.rule_id
        assert rule.summary
        assert rule.rationale
