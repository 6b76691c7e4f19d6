"""The rule catalogue: repo-specific invariants as AST checks.

Each rule here encodes an invariant the engine's guarantees rest on.
They fall into four families (see DESIGN.md "Static analysis" for the
full rationale):

* **Determinism** — ``unseeded-random``, ``wall-clock``: the clustering
  hot paths (:mod:`repro.engine`, :mod:`repro.core`, :mod:`repro.cache`)
  must be bit-identical run-to-run, so randomness must flow through
  :mod:`repro.util.rng` and wall-clock reads must stay out of anything
  that feeds cluster output.
* **Pickle boundary** — ``pickle-boundary``: everything dispatched to
  the worker pool crosses a pickle boundary; lambdas and closures do
  not survive it, and asymmetric ``__getstate__``/``__setstate__``
  pairs corrupt state silently.
* **Error taxonomy** — ``broad-except``, ``bare-raise-exception``:
  failures must flow through :mod:`repro.errors` so the supervisor can
  key recovery off the exception *class*.
* **Discipline** — ``silent-skip`` (parsers count-and-skip, never
  silently drop), ``mutable-default``, ``assert-validation`` (asserts
  vanish under ``-O``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, LintModule, Rule, register

__all__ = [
    "HOT_PACKAGES",
    "PARSER_PACKAGES",
    "PICKLE_SAFE_NAMES",
    "UnseededRandomRule",
    "WallClockRule",
    "PickleBoundaryRule",
    "BroadExceptRule",
    "BareRaiseExceptionRule",
    "SilentSkipRule",
    "MutableDefaultRule",
    "AssertValidationRule",
    "ShmLifecycleRule",
]

#: Packages whose output must be bit-identical run-to-run; RNG and
#: wall-clock reads are policed here.
HOT_PACKAGES = ("repro.engine", "repro.core", "repro.cache")

#: Packages that parse external input; their error handling must
#: count-and-skip, never silently drop.
PARSER_PACKAGES = ("repro.weblog", "repro.bgp")

#: The blessed RNG plumbing — exempt from the determinism rules.
RNG_MODULE = "repro.util.rng"

#: Names allowed inside the worker wire-type aliases (see
#: ``_WORKER_ALIAS_MODULES``): plain data and the engine types that
#: define explicit ``__getstate__``/``__setstate__`` pairs or are
#: frozen dataclasses of plain fields (``SharedLpmHandle``).  Anything
#: else crossing the worker boundary needs review (and a suppression).
PICKLE_SAFE_NAMES = frozenset(
    {
        "Tuple",
        "Optional",
        "List",
        "Dict",
        "Sequence",
        "int",
        "float",
        "str",
        "bytes",
        "bool",
        "None",
        "PackedBatch",
        "ClusterStore",
        "SharedLpmHandle",
    }
)

#: Modules that dispatch work to other processes must declare their
#: wire formats as module-level type aliases built only from
#: ``PICKLE_SAFE_NAMES``, keeping each boundary auditable in one place.
_WORKER_ALIAS_MODULES: Dict[str, Tuple[str, ...]] = {
    "repro.engine.shm": ("_ShmJob", "_ShmAck"),
}

#: Pool/executor methods whose callable+args cross the pickle boundary.
_DISPATCH_METHODS = frozenset(
    {
        "map",
        "map_async",
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "submit",
    }
)

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
class PickleBoundaryRule(Rule):
    """Everything shipped to the worker pool must survive pickling."""

    rule_id = "pickle-boundary"
    summary = (
        "no lambdas/closures handed to worker pools; __getstate__ and "
        "__setstate__ come in pairs; shm worker-job aliases stay on the "
        "picklable allowlist"
    )
    rationale = (
        "Worker dispatch pickles the callable and every argument.  Lambdas "
        "and nested functions fail to pickle at dispatch time (or worse, "
        "at a fault-recovery redispatch hours in); a __getstate__ without "
        "its __setstate__ twin round-trips state wrongly without any "
        "error.  repro.engine.shm declares its wire types as aliases so "
        "the boundary is auditable."
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        nested_defs = self._nested_function_names(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_dispatch(module, node, nested_defs)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_state_pair(module, node)
        alias_names = _WORKER_ALIAS_MODULES.get(module.module)
        if alias_names:
            yield from self._check_worker_aliases(module, alias_names)

    @staticmethod
    def _nested_function_names(module: LintModule) -> Set[str]:
        nested: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if module.enclosing_function(node) is not None:
                    nested.add(node.name)
        return nested

    def _check_dispatch(
        self, module: LintModule, call: ast.Call, nested_defs: Set[str]
    ) -> Iterator[Finding]:
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
        is_dispatch = attr in _DISPATCH_METHODS
        is_pool_ctor = _last_segment(call.func) in ("Pool", "ProcessPoolExecutor")
        if not (is_dispatch or is_pool_ctor):
            return
        candidates: List[Tuple[ast.AST, str]] = []
        if is_dispatch:
            for arg in call.args:
                candidates.append((arg, f"argument of .{attr}()"))
            for keyword in call.keywords:
                candidates.append((keyword.value, f"argument of .{attr}()"))
        else:
            for keyword in call.keywords:
                if keyword.arg in ("initializer", "initargs"):
                    candidates.append((keyword.value, f"{keyword.arg}= of the pool"))
        for value, where in candidates:
            if isinstance(value, ast.Lambda):
                yield self.finding(
                    module,
                    value,
                    f"lambda as {where} crosses the worker pickle boundary "
                    "and cannot be pickled; use a module-level function",
                )
            elif isinstance(value, ast.Name) and value.id in nested_defs:
                yield self.finding(
                    module,
                    value,
                    f"nested function {value.id!r} as {where} is a closure "
                    "and cannot be pickled; hoist it to module level",
                )

    def _check_state_pair(
        self, module: LintModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            item.name
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        has_get = "__getstate__" in methods
        has_set = "__setstate__" in methods
        if has_get != has_set:
            present, missing = (
                ("__getstate__", "__setstate__") if has_get else ("__setstate__", "__getstate__")
            )
            yield self.finding(
                module,
                cls,
                f"class {cls.name} defines {present} without {missing}; "
                "an asymmetric pickle protocol round-trips worker state "
                "incorrectly without raising",
            )

    def _check_worker_aliases(
        self, module: LintModule, alias_names: Tuple[str, ...]
    ) -> Iterator[Finding]:
        """A dispatching module's wire-type aliases must stay auditable."""
        aliases: Dict[str, ast.Assign] = {}
        for node in module.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in alias_names:
                aliases[target.id] = node
        for name in alias_names:
            node = aliases.get(name)
            if node is None:
                yield Finding(
                    path=module.path,
                    line=1,
                    col=0,
                    rule_id=self.rule_id,
                    message=(
                        f"{module.module} must declare the {name} type "
                        "alias so the worker wire format stays auditable"
                    ),
                )
                continue
            for inner in ast.walk(node.value):
                if isinstance(inner, ast.Name) and inner.id not in PICKLE_SAFE_NAMES:
                    yield self.finding(
                        module,
                        inner,
                        f"{inner.id!r} in the {name} alias is not on the "
                        "pickle-safe allowlist; types crossing the worker "
                        "boundary must be plain data or define an explicit "
                        "pickle protocol (then extend PICKLE_SAFE_NAMES)",
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
        "The supervisor keys retry/quarantine/degrade decisions off the "
        "exception class.  A broad handler that swallows or mislabels an "
        "arbitrary bug (say, checkpoint corruption surfacing inside a "
        "worker path) corrupts that recovery logic invisibly.  Handlers "
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


#: Methods that move their arguments into another process: the pool
#: dispatchers plus queue/pipe sends.
_SHM_SINK_METHODS = _DISPATCH_METHODS | frozenset({"put", "put_nowait", "send"})

#: Constructors whose result is (or wraps) a raw buffer mapping.
_BUFFER_FACTORIES = frozenset({"SharedMemory", "memoryview", "mmap"})


@register
class ShmLifecycleRule(Rule):
    """Shared-memory segments get unlinked; raw buffers stay in-process."""

    rule_id = "shm-lifecycle"
    summary = (
        "buffer-backed views (.buf, memoryview, mmap, .cast()) never "
        "cross a queue/pipe/pool boundary"
    )
    rationale = (
        "A memoryview or mmap handed to .put()/.send()/pool dispatch "
        "either fails to pickle at the boundary or materialises a "
        "private copy on the far side that silently stops sharing.  "
        "Segments travel by name (SharedLpmHandle); buffers stay in the "
        "process that mapped them.  (The unlink-pairing half of this "
        "rule moved to the path-sensitive `resource-leak` rule under "
        "--flow, which sees the exception edges a per-module "
        "create/unlink census cannot.)"
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for scope in self._scopes(module):
            yield from self._check_boundary(module, scope)

    @staticmethod
    def _scopes(module: LintModule) -> List[ast.AST]:
        scopes: List[ast.AST] = [module.tree]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        return scopes

    @staticmethod
    def _scope_nodes(root: ast.AST) -> Iterator[ast.AST]:
        """Every node in ``root``'s own scope (nested defs excluded)."""
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _buffer_names(cls, scope: ast.AST) -> Set[str]:
        """Names bound to raw-buffer views within one scope."""
        names: Set[str] = set()
        for node in cls._scope_nodes(scope):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if cls._is_buffer_expr(node.value):
                names.add(target.id)
        return names

    @staticmethod
    def _is_buffer_expr(value: ast.AST) -> bool:
        if isinstance(value, ast.Attribute) and value.attr == "buf":
            return True
        if isinstance(value, ast.Call):
            segment = _last_segment(value.func)
            if segment in _BUFFER_FACTORIES:
                return True
            if isinstance(value.func, ast.Attribute) and value.func.attr == "cast":
                return True
        return False

    def _check_boundary(
        self, module: LintModule, scope: ast.AST
    ) -> Iterator[Finding]:
        buffers = self._buffer_names(scope)
        if not buffers:
            return
        for node in self._scope_nodes(scope):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SHM_SINK_METHODS
            ):
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            shipped: List[ast.AST] = []
            for value in values:
                shipped.append(value)
                if isinstance(value, (ast.Tuple, ast.List)):
                    shipped.extend(value.elts)
            for value in shipped:
                if isinstance(value, ast.Name) and value.id in buffers:
                    yield self.finding(
                        module,
                        value,
                        f"{value.id!r} is a raw buffer view and "
                        f".{node.func.attr}() ships it across a process "
                        "boundary; buffers do not survive pickling — send "
                        "the segment *name* and re-attach on the far side",
                    )
