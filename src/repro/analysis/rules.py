"""The rule catalogue: repo-specific invariants as AST checks.

Each rule here encodes an invariant the engine's guarantees rest on.
They fall into three families (see DESIGN.md "Static analysis" for the
full rationale):

* **Determinism** — ``unseeded-random``, ``wall-clock``: the clustering
  hot paths (:mod:`repro.engine`, :mod:`repro.core`, :mod:`repro.cache`)
  must be bit-identical run-to-run, so randomness must flow through
  :mod:`repro.util.rng` and wall-clock reads must stay out of anything
  that feeds cluster output.
* **Error taxonomy** — ``broad-except``, ``bare-raise-exception``:
  failures must flow through :mod:`repro.errors` so recovery code can
  key off the exception *class*.
* **Discipline** — ``silent-skip`` (parsers count-and-skip, never
  silently drop), ``mutable-default``, ``assert-validation`` (asserts
  vanish under ``-O``).

The cross-module rules live in :mod:`repro.analysis.xmodule`.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.core import Finding, LintModule, Rule, register

__all__ = [
    "HOT_PACKAGES",
    "PARSER_PACKAGES",
    "UnseededRandomRule",
    "WallClockRule",
    "BroadExceptRule",
    "BareRaiseExceptionRule",
    "SilentSkipRule",
    "MutableDefaultRule",
    "AssertValidationRule",
]

#: Packages whose output must be bit-identical run-to-run; RNG and
#: wall-clock reads are policed here.
HOT_PACKAGES = ("repro.engine", "repro.core", "repro.cache")

#: Packages that parse external input; their error handling must
#: count-and-skip, never silently drop.
PARSER_PACKAGES = ("repro.weblog", "repro.bgp")

#: The blessed RNG plumbing — exempt from the determinism rules.
RNG_MODULE = "repro.util.rng"

#: Exact dotted spellings of wall-clock reads (``time.perf_counter``,
#: ``time.monotonic`` and ``time.sleep`` are fine: they never feed
#: output identity).
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render a pure ``Name``/``Attribute`` chain as ``a.b.c``, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _last_segment(node: ast.AST) -> Optional[str]:
    """The final attribute/name of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@register
class UnseededRandomRule(Rule):
    """RNG must flow through :mod:`repro.util.rng`."""

    rule_id = "unseeded-random"
    summary = (
        "no module-level random.* calls anywhere, and no random.* calls at "
        "all in the engine/core/cache hot paths — use repro.util.rng"
    )
    rationale = (
        "The engine guarantees bit-identical clusters across sharding, "
        "fault injection and fast-path substitution; any draw from the "
        "shared global random stream (or an import-time draw anywhere) "
        "breaks that silently.  repro.util.rng derives independent seeded "
        "streams instead."
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        if module.module == RNG_MODULE:
            return
        hot = module.in_package(*HOT_PACKAGES)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                if hot:
                    yield self.finding(
                        module,
                        node,
                        "import of random internals in a hot-path module; "
                        "build generators with repro.util.rng.make_rng/spawn",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None or not dotted.startswith("random."):
                continue
            if hot:
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() in a hot-path module; route RNG through "
                    "repro.util.rng (make_rng/spawn) so the global seed "
                    "discipline holds",
                )
            elif module.at_module_level(node):
                yield self.finding(
                    module,
                    node,
                    f"module-level {dotted}() runs at import time and "
                    "perturbs every later draw; construct RNGs inside "
                    "functions via repro.util.rng",
                )


@register
class WallClockRule(Rule):
    """No wall-clock reads in the hot paths."""

    rule_id = "wall-clock"
    summary = (
        "no time.time()/datetime.now() in engine/core/cache "
        "(time.perf_counter for durations is fine)"
    )
    rationale = (
        "Cluster output must not depend on when a run happened.  Elapsed "
        "timing uses time.perf_counter; simulated clocks take explicit "
        "timestamps.  A wall-clock read in a hot path is either dead code "
        "or a nondeterminism bug."
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        if not module.in_package(*HOT_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() reads the wall clock in a hot-path module; "
                    "pass timestamps in explicitly (or use "
                    "time.perf_counter for durations)",
                )


@register
class BroadExceptRule(Rule):
    """``except Exception`` must re-raise or wrap into :mod:`repro.errors`."""

    rule_id = "broad-except"
    summary = (
        "every `except Exception` re-raises or raises a repro error type; "
        "bare `except:` is never allowed"
    )
    rationale = (
        "Recovery code (checkpoint rewrite, resume, WAL repair) keys "
        "its decisions off the exception class.  A broad handler that "
        "swallows or mislabels an arbitrary bug (say, checkpoint "
        "corruption surfacing as a generic error) corrupts that "
        "recovery logic invisibly.  Handlers "
        "that genuinely must stay broad carry a reasoned suppression."
    )
    require_reason = True

    #: Raisable names that count as routing through the taxonomy: the
    #: :mod:`repro.errors` exports plus anything imported from a repro
    #: module that looks like an error/warning type.
    _TAXONOMY_HINTS = ("Error", "Warning", "Fault")

    def check(self, module: LintModule) -> Iterator[Finding]:
        taxonomy = self._taxonomy_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt "
                    "too; name the exceptions (narrowest set that applies)",
                )
                continue
            if not self._is_broad(node.type):
                continue
            if self._handler_routes_taxonomy(node, taxonomy):
                continue
            yield self.finding(
                module,
                node,
                "`except Exception` neither re-raises nor wraps into a "
                "repro.errors type; catch the concrete exceptions, wrap "
                "into the taxonomy, or suppress with a reason",
            )

    @staticmethod
    def _is_broad(type_node: ast.AST) -> bool:
        names: List[Optional[str]] = []
        if isinstance(type_node, ast.Tuple):
            names = [_last_segment(element) for element in type_node.elts]
        else:
            names = [_last_segment(type_node)]
        return any(name in ("Exception", "BaseException") for name in names)

    @classmethod
    def _taxonomy_names(cls, module: LintModule) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.module or "").startswith("repro"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if bound.endswith(cls._TAXONOMY_HINTS):
                    names.add(bound)
        return names

    @staticmethod
    def _handler_routes_taxonomy(
        handler: ast.ExceptHandler, taxonomy: Set[str]
    ) -> bool:
        for inner in ast.walk(handler):
            if not isinstance(inner, ast.Raise):
                continue
            if inner.exc is None:
                return True  # bare re-raise
            target = inner.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = _last_segment(target)
            if name is not None and name in taxonomy:
                return True
        return False


@register
class BareRaiseExceptionRule(Rule):
    """Never ``raise Exception`` — the taxonomy exists for a reason."""

    rule_id = "bare-raise-exception"
    summary = "no `raise Exception(...)` / `raise BaseException(...)`"
    rationale = (
        "A raised bare Exception is uncatchable without a broad handler, "
        "which the broad-except rule forbids — so it can only be handled "
        "by exactly the pattern this pass exists to eliminate.  Raise a "
        "repro.errors type (or a specific builtin)."
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = _last_segment(target)
            if name in ("Exception", "BaseException"):
                yield self.finding(
                    module,
                    node,
                    f"raise {name} defeats typed error handling; raise a "
                    "repro.errors type (or the narrowest builtin)",
                )


@register
class SilentSkipRule(Rule):
    """Parsers count-and-skip; they never silently drop input."""

    rule_id = "silent-skip"
    summary = (
        "in repro.weblog/repro.bgp, an except handler may not just "
        "pass/continue — it must count (report.x += 1) or raise"
    )
    rationale = (
        "The paper's inputs (CLF logs, routing dumps) are dirty; the "
        "established discipline is count-and-skip with a max_errors "
        "guard (ParseReport/DumpReport).  A handler that drops lines "
        "without accounting makes 'parsed N entries' a lie and masks "
        "format drift."
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        if not module.in_package(*PARSER_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            has_raise = any(isinstance(n, ast.Raise) for n in ast.walk(node))
            has_count = any(isinstance(n, ast.AugAssign) for n in ast.walk(node))
            if has_raise or has_count:
                continue
            only_pass = len(node.body) == 1 and isinstance(node.body[0], ast.Pass)
            has_continue = any(
                isinstance(n, ast.Continue) for n in ast.walk(node)
            )
            if only_pass or has_continue:
                yield self.finding(
                    module,
                    node,
                    "parser error handler skips input without accounting; "
                    "increment a report counter (count-and-skip) or raise",
                )


@register
class MutableDefaultRule(Rule):
    """No mutable default argument values."""

    rule_id = "mutable-default"
    summary = "no [] / {} / set() / list() etc. as parameter defaults"
    rationale = (
        "A mutable default is shared across calls; in a long-lived engine "
        "process that means state leaking between runs (and between "
        "shards resumed in one driver).  Use None plus an in-body default."
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, _MUTABLE_LITERALS) or (
                    isinstance(default, ast.Call)
                    and _last_segment(default.func) in _MUTABLE_CONSTRUCTORS
                ):
                    yield self.finding(
                        module,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside the function",
                    )


@register
class AssertValidationRule(Rule):
    """``assert`` must not validate inputs — it vanishes under ``-O``."""

    rule_id = "assert-validation"
    summary = "no `assert` over function parameters; raise explicitly"
    rationale = (
        "python -O strips asserts, so an assert guarding a parameter is "
        "validation that silently disappears in optimised deployments.  "
        "Internal invariants over module state are fine; input checks "
        "must raise (ValueError/AddressError/repro.errors)."
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assert):
                continue
            function = module.enclosing_function(node)
            if function is None or isinstance(function, ast.Lambda):
                continue
            params = self._parameter_names(function)
            used = {
                name.id
                for name in ast.walk(node.test)
                if isinstance(name, ast.Name)
            }
            touched = sorted(params & used)
            if touched:
                yield self.finding(
                    module,
                    node,
                    f"assert validates parameter(s) {', '.join(touched)} "
                    "and disappears under python -O; raise an explicit "
                    "error instead",
                )

    @staticmethod
    def _parameter_names(function: ast.AST) -> Set[str]:
        args = function.args  # type: ignore[attr-defined]
        names = {arg.arg for arg in args.args + args.kwonlyargs}
        names.update(arg.arg for arg in getattr(args, "posonlyargs", []))
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
        names.discard("self")
        names.discard("cls")
        return names

