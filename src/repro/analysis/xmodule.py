"""Whole-program analysis: cross-module rules over the parsed tree.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time; the contracts this module checks only exist *between* files.  A
:class:`Project` parses every module once (reusing
:class:`~repro.analysis.core.LintModule`), builds import / class /
method indexes lazily, and the registered :class:`ProjectRule`\\ s walk
those maps:

* **metrics-drift** — every ``EngineMetrics`` counter has an increment
  site and appears in ``snapshot()``/``render()`` output, and vice
  versa: no counter silently stops being reported, no reported key
  silently stops being fed.
* **cli-doc-drift** — every ``add_argument`` flag across the CLIs is
  documented in the project docs (README/DESIGN), and no documented
  flag is stale.
* **fork-safety** — a static race detector for the multiprocessing
  engine: functions reachable from the worker-process boundary
  (``Process(target=…)``, pool initializers, dispatch calls) must not
  read or mutate module-level mutable state, and objects already
  shipped to workers must not be mutated afterwards.
* **error-taxonomy-reachability** — every class in ``repro.errors`` is
  exported in ``__all__`` and actually raised (or warned, or serves as
  a family root) somewhere in the tree.
* **checkpoint-schema-drift** — pickled state tuples stay consistent
  between writer and reader: ``__getstate__`` / ``__setstate__``
  arity.  (The checkpoint *file* needs no such rule: one field table
  drives both directions of :mod:`repro.engine.state`'s layout.)

Findings reuse the PR 4 :class:`~repro.analysis.core.Finding` type and
per-line suppression comments; ``repro-lint --project`` is the CLI
front end.  The analysis is deliberately over-approximate where it
must be (attribute calls resolve by method name across every project
class) — for a tree this size, a few extra edges in the call graph are
far cheaper than a missed race.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.analysis.core import (
    Finding,
    LintModule,
    _iter_python_files,
    apply_suppressions,
)
from repro.analysis.rules import _DISPATCH_METHODS, _dotted_name, _last_segment

__all__ = [
    "Project",
    "FuncInfo",
    "ProjectRule",
    "PROJECT_RULES",
    "register_project",
    "active_project_rules",
    "analyze_project",
]

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: One resolved callable: its home module and its def.
_FuncRef = Tuple[LintModule, ast.FunctionDef]


class Project:
    """Every parsed module of one source tree, plus its prose docs.

    ``modules`` maps dotted module name → :class:`LintModule`; ``docs``
    maps a documentation file's path → its text (for the doc-drift
    rule).  Index properties (top-level functions, classes, a global
    method-name index, import bindings) are built lazily and cached —
    the tree is parsed exactly once, by construction.
    """

    def __init__(
        self,
        modules: Dict[str, LintModule],
        docs: Optional[Dict[str, str]] = None,
    ) -> None:
        self.modules = dict(modules)
        self.docs = dict(docs or {})
        self._top_functions: Optional[Dict[str, Dict[str, ast.FunctionDef]]] = None
        self._classes: Optional[Dict[str, Dict[str, ast.ClassDef]]] = None
        self._methods: Optional[
            Dict[str, List[Tuple[LintModule, ast.ClassDef, ast.FunctionDef]]]
        ] = None
        self._imports: Optional[
            Dict[str, Dict[str, Tuple[str, Optional[str]]]]
        ] = None
        self._functions: Optional[Dict[str, "FuncInfo"]] = None
        self._func_keys: Optional[Dict[int, str]] = None
        self._call_graph: Optional[Dict[str, Tuple[str, ...]]] = None

    @classmethod
    def load(
        cls,
        paths: Sequence[Union[str, Path]],
        docs: Sequence[Union[str, Path]] = (),
    ) -> "Project":
        """Parse every ``.py`` file under ``paths`` into a project.

        Files that fail to read or parse are skipped — ``lint_paths``
        already reports them as ``syntax-error`` findings, and a broken
        file cannot contribute cross-module facts anyway.
        """
        modules: Dict[str, LintModule] = {}
        for file_path in _iter_python_files(paths):
            try:
                source = file_path.read_text(encoding="utf-8")
                module = LintModule(source, path=str(file_path))
            except (OSError, SyntaxError, ValueError):
                continue
            modules[module.module] = module
        doc_texts: Dict[str, str] = {}
        for doc_path in docs:
            try:
                doc_texts[str(doc_path)] = Path(doc_path).read_text(
                    encoding="utf-8"
                )
            except OSError:
                continue
        return cls(modules, doc_texts)

    def iter_modules(self) -> Iterator[LintModule]:
        for name in sorted(self.modules):
            yield self.modules[name]

    # -- indexes ---------------------------------------------------------

    def top_functions(self, module_name: str) -> Dict[str, ast.FunctionDef]:
        """Top-level ``def``\\ s of one module, by name."""
        if self._top_functions is None:
            self._top_functions = {}
            for name, module in self.modules.items():
                self._top_functions[name] = {
                    node.name: node
                    for node in module.tree.body
                    if isinstance(node, _FUNCTION_DEFS)
                }
        return self._top_functions.get(module_name, {})

    def classes(self, module_name: str) -> Dict[str, ast.ClassDef]:
        """Top-level classes of one module, by name."""
        if self._classes is None:
            self._classes = {}
            for name, module in self.modules.items():
                self._classes[name] = {
                    node.name: node
                    for node in module.tree.body
                    if isinstance(node, ast.ClassDef)
                }
        return self._classes.get(module_name, {})

    def methods_named(
        self, method_name: str
    ) -> List[Tuple[LintModule, ast.ClassDef, ast.FunctionDef]]:
        """Every method with this name, across every project class."""
        if self._methods is None:
            self._methods = {}
            for name, module in self.modules.items():
                for class_def in self.classes(name).values():
                    for node in class_def.body:
                        if isinstance(node, _FUNCTION_DEFS):
                            self._methods.setdefault(node.name, []).append(
                                (module, class_def, node)
                            )
        return self._methods.get(method_name, [])

    def imports(self, module_name: str) -> Dict[str, Tuple[str, Optional[str]]]:
        """Import bindings of one module: bound name → (source, original).

        ``from a.b import c as d`` binds ``d`` → ``("a.b", "c")``;
        ``import a.b`` binds ``a`` → ``("a", None)``.  Relative imports
        are resolved against the importing module's package.
        """
        if self._imports is None:
            self._imports = {}
            for name, module in self.modules.items():
                bindings: Dict[str, Tuple[str, Optional[str]]] = {}
                for node in ast.walk(module.tree):
                    if isinstance(node, ast.Import):
                        for alias in node.names:
                            bound = alias.asname or alias.name.split(".")[0]
                            bindings[bound] = (alias.name, None)
                    elif isinstance(node, ast.ImportFrom):
                        source = node.module or ""
                        if node.level:
                            parts = name.split(".")
                            base = parts[: max(0, len(parts) - node.level)]
                            source = ".".join(
                                base + ([node.module] if node.module else [])
                            )
                        for alias in node.names:
                            bound = alias.asname or alias.name
                            bindings[bound] = (source, alias.name)
                self._imports[name] = bindings
        return self._imports.get(module_name, {})

    # -- call resolution -------------------------------------------------

    def _class_init(
        self, module: LintModule, class_def: ast.ClassDef
    ) -> List[_FuncRef]:
        for node in class_def.body:
            if isinstance(node, _FUNCTION_DEFS) and node.name == "__init__":
                return [(module, node)]
        return []

    def _resolve_in_module(
        self, module_name: str, name: str
    ) -> List[_FuncRef]:
        module = self.modules.get(module_name)
        if module is None:
            return []
        function = self.top_functions(module_name).get(name)
        if function is not None:
            return [(module, function)]
        class_def = self.classes(module_name).get(name)
        if class_def is not None:
            return self._class_init(module, class_def)
        return []

    def resolve_name(self, module: LintModule, name: str) -> List[_FuncRef]:
        """Resolve a bare-name callable reference inside ``module``."""
        local = self._resolve_in_module(module.module, name)
        if local:
            return local
        binding = self.imports(module.module).get(name)
        if binding is not None:
            source, original = binding
            if original is not None:
                return self._resolve_in_module(source, original)
        return []

    def resolve_callable(
        self, module: LintModule, node: ast.AST
    ) -> List[_FuncRef]:
        """Resolve a callable *reference* (not a call) to its defs.

        Bare names resolve precisely through the module's bindings;
        attribute references (``self._work``, ``pool.submit``,
        ``sanitize.take_stats``) resolve by module attribute when the
        base is an imported module, and otherwise over-approximate to
        every project method of that name.
        """
        if isinstance(node, ast.Name):
            return self.resolve_name(module, node.id)
        if not isinstance(node, ast.Attribute):
            return []
        attr = node.attr
        targets: List[_FuncRef] = []
        if isinstance(node.value, ast.Name):
            binding = self.imports(module.module).get(node.value.id)
            if binding is not None:
                source, original = binding
                candidates = [source]
                if original is not None:
                    candidates.insert(0, f"{source}.{original}")
                for candidate in candidates:
                    if candidate in self.modules:
                        targets.extend(
                            self._resolve_in_module(candidate, attr)
                        )
                        break
        for method_module, _class_def, method in self.methods_named(attr):
            targets.append((method_module, method))
        return targets

    # -- call graph ------------------------------------------------------

    def functions(self) -> Dict[str, "FuncInfo"]:
        """Every analyzable function, keyed ``"module:qualname"``.

        Covers top-level functions (``pkg.mod:helper``) and methods of
        top-level classes (``pkg.mod:Cls.method``) — the same universe
        :meth:`resolve_callable` can land on.  Nested defs are callee
        opaque (havoc'd) by construction.
        """
        if self._functions is None:
            self._functions = {}
            self._func_keys = {}
            for name, module in self.modules.items():
                for node in module.tree.body:
                    if isinstance(node, _FUNCTION_DEFS):
                        self._add_function(f"{name}:{node.name}", module, node, None)
                    elif isinstance(node, ast.ClassDef):
                        for member in node.body:
                            if isinstance(member, _FUNCTION_DEFS):
                                self._add_function(
                                    f"{name}:{node.name}.{member.name}",
                                    module,
                                    member,
                                    node.name,
                                )
        return self._functions

    def _add_function(
        self,
        key: str,
        module: LintModule,
        node: ast.FunctionDef,
        class_name: Optional[str],
    ) -> None:
        assert self._functions is not None and self._func_keys is not None
        self._functions[key] = FuncInfo(key, module, node, class_name)
        self._func_keys[id(node)] = key

    def func_key(self, node: ast.FunctionDef) -> Optional[str]:
        """The ``"module:qualname"`` key of a def, if it is indexed."""
        self.functions()
        assert self._func_keys is not None
        return self._func_keys.get(id(node))

    def resolve_call_keys(
        self,
        module: LintModule,
        func_expr: ast.AST,
        class_name: Optional[str] = None,
    ) -> List[str]:
        """Resolve a call's callee expression to function keys.

        ``self.m(...)`` inside a method of ``class_name`` resolves to
        that class's own ``m`` when it has one — the single precise
        edge — and only falls back to the every-method-of-that-name
        over-approximation otherwise.
        """
        if (
            class_name is not None
            and isinstance(func_expr, ast.Attribute)
            and isinstance(func_expr.value, ast.Name)
            and func_expr.value.id == "self"
        ):
            own = f"{module.module}:{class_name}.{func_expr.attr}"
            if own in self.functions():
                return [own]
        keys: List[str] = []
        for _ref_module, func in self.resolve_callable(module, func_expr):
            key = self.func_key(func)
            if key is not None and key not in keys:
                keys.append(key)
        return keys

    def call_graph(self) -> Dict[str, Tuple[str, ...]]:
        """Resolved project-internal call edges, per function key.

        Only edges landing on indexed project functions appear —
        stdlib / third-party / nested callees are havoc'd at the call
        site by the interprocedural pass, not modelled here.
        """
        if self._call_graph is None:
            graph: Dict[str, Tuple[str, ...]] = {}
            for key, info in self.functions().items():
                callees: List[str] = []
                for call in iter_local_calls(info.node):
                    for callee in self.resolve_call_keys(
                        info.module, call.func, info.class_name
                    ):
                        if callee not in callees:
                            callees.append(callee)
                graph[key] = tuple(callees)
            self._call_graph = graph
        return self._call_graph


@dataclass(frozen=True)
class FuncInfo:
    """One indexed function: its key, home module, def, and class."""

    key: str
    module: LintModule
    node: ast.FunctionDef
    class_name: Optional[str]


def iter_local_calls(func: ast.FunctionDef) -> Iterator[ast.Call]:
    """Every ``Call`` in ``func``'s own body, skipping nested def bodies."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTION_DEFS) or isinstance(
            node, (ast.ClassDef, ast.Lambda)
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class ProjectRule:
    """Base class for one registered cross-module check.

    The same surface as :class:`~repro.analysis.core.Rule` — ``rule_id``
    / ``summary`` / ``rationale`` and a ``finding`` helper — but
    :meth:`check` receives the whole :class:`Project`.
    """

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, node: Optional[ast.AST], message: str, line: int = 0
    ) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", line) if node is not None else line,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            rule_id=self.rule_id,
            message=message,
        )


#: The cross-module registry: rule id → singleton rule instance.
PROJECT_RULES: Dict[str, ProjectRule] = {}


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator: instantiate and register a project rule."""
    if not cls.rule_id:
        raise ValueError(f"project rule {cls.__name__} has no rule_id")
    if cls.rule_id in PROJECT_RULES:
        raise ValueError(f"duplicate project rule id: {cls.rule_id}")
    PROJECT_RULES[cls.rule_id] = cls()
    return cls


def active_project_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[ProjectRule]:
    """Resolve ``--select`` / ``--ignore`` into a project-rule list."""
    wanted = set(select) if select is not None else set(PROJECT_RULES)
    wanted -= set(ignore or ())
    unknown = wanted - set(PROJECT_RULES)
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [
        rule
        for rule_id, rule in sorted(PROJECT_RULES.items())
        if rule_id in wanted
    ]


def analyze_project(
    project: Project, rules: Optional[Sequence[ProjectRule]] = None
) -> List[Finding]:
    """Run project rules over ``project``; apply per-line suppressions.

    Findings anchored inside an analyzed module honour the same
    ``# lint: ignore[rule-id]`` comments the per-module pass uses;
    findings anchored in prose docs have no suppression channel (fix
    the doc instead).
    """
    if rules is None:
        rules = active_project_rules()
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(project))
    return apply_suppressions(findings, project.modules.values())


# -- shared AST helpers -----------------------------------------------------


def _str_constants(node: ast.AST) -> Set[str]:
    """Every string constant anywhere under ``node``."""
    return {
        child.value
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    }


def _dict_literal_keys(node: ast.Dict) -> Set[str]:
    return {
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _self_attr_target(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is the target ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# -- rule: metrics-drift ----------------------------------------------------


@register_project
class MetricsDriftRule(ProjectRule):
    """``EngineMetrics`` counters, their feeders, and their reporting
    must stay in sync."""

    rule_id = "metrics-drift"
    summary = (
        "every EngineMetrics counter is incremented somewhere and appears "
        "in snapshot()/render(), and every snapshot key is a real attribute"
    )
    rationale = (
        "--metrics is how operators audit a run (and how the sanitize "
        "mode proves it ran); a counter that drifts out of snapshot() or "
        "loses its last increment site reports silence as health."
    )

    #: Class whose counters the rule audits.
    metrics_class = "EngineMetrics"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            class_def = project.classes(module.module).get(self.metrics_class)
            if class_def is not None:
                yield from self._check_class(project, module, class_def)

    def _check_class(
        self, project: Project, module: LintModule, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            node.name: node
            for node in class_def.body
            if isinstance(node, _FUNCTION_DEFS)
        }
        init = methods.get("__init__")
        if init is None:
            return
        properties = {
            node.name
            for node in class_def.body
            if isinstance(node, _FUNCTION_DEFS)
            and any(
                _last_segment(dec) == "property" for dec in node.decorator_list
            )
        }
        all_attrs: Set[str] = set()
        counters: Dict[str, ast.AST] = {}
        for node in ast.walk(init):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = _self_attr_target(target)
                    if attr is None:
                        continue
                    all_attrs.add(attr)
                    value = node.value
                    if isinstance(value, ast.Constant) and isinstance(
                        value.value, (int, float, bool)
                    ):
                        counters[attr] = node
        written_outside_init: Set[str] = set()
        for name, method in methods.items():
            if name == "__init__":
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.AugAssign):
                    attr = _self_attr_target(node.target)
                    if attr is not None:
                        written_outside_init.add(attr)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        attr = _self_attr_target(target)
                        if attr is not None:
                            written_outside_init.add(attr)
        snapshot = methods.get("snapshot")
        snapshot_keys: Set[str] = set()
        if snapshot is not None:
            for node in ast.walk(snapshot):
                if isinstance(node, ast.Dict):
                    snapshot_keys |= _dict_literal_keys(node)
        render = methods.get("render")
        render_strings = _str_constants(render) if render is not None else set()

        for counter, node in sorted(counters.items()):
            if counter not in written_outside_init:
                yield self.finding(
                    module.path,
                    node,
                    f"counter '{counter}' is initialised but never "
                    "incremented or set by any method",
                )
            if snapshot is not None and counter not in snapshot_keys:
                yield self.finding(
                    module.path,
                    node,
                    f"counter '{counter}' does not appear in snapshot() — "
                    "it is fed but never reported",
                )
            if render is not None and counter not in render_strings:
                yield self.finding(
                    module.path,
                    node,
                    f"counter '{counter}' does not appear in render() — "
                    "--metrics output would omit it",
                )
        if snapshot is not None:
            known = all_attrs | properties
            for key in sorted(snapshot_keys - known):
                yield self.finding(
                    module.path,
                    snapshot,
                    f"snapshot() reports '{key}' which is neither an "
                    "__init__ attribute nor a property — stale key",
                )
        yield from self._check_record_callers(project, module, class_def, methods)

    def _check_record_callers(
        self,
        project: Project,
        module: LintModule,
        class_def: ast.ClassDef,
        methods: Dict[str, ast.FunctionDef],
    ) -> Iterator[Finding]:
        record_methods = {
            name for name in methods if name.startswith("record_")
        }
        called: Set[str] = set()
        for other in project.iter_modules():
            if other.module == module.module:
                continue
            for node in ast.walk(other.tree):
                if isinstance(node, ast.Call):
                    name = _last_segment(node.func)
                    if name in record_methods:
                        called.add(name)
        for name in sorted(record_methods - called):
            yield self.finding(
                module.path,
                methods[name],
                f"record method '{name}' is never called outside "
                f"{module.module} — dead telemetry feeder",
            )


# -- rule: cli-doc-drift ----------------------------------------------------


#: Long-form flags that legitimately appear in the docs without being
#: defined by any repo CLI (flags of tools the docs tell you to run).
EXTERNAL_DOC_FLAGS = frozenset(
    {
        "--benchmark-only",  # pytest-benchmark's flag, quoted in README
    }
)

_DOC_FLAG_RE = re.compile(r"--[A-Za-z][A-Za-z0-9-]*")


@register_project
class CliDocDriftRule(ProjectRule):
    """CLI flags and prose docs must agree, both directions."""

    rule_id = "cli-doc-drift"
    summary = (
        "every add_argument --flag appears in the project docs, and every "
        "--flag the docs mention is actually defined by some CLI"
    )
    rationale = (
        "four CLIs share one README; an undocumented flag is invisible "
        "to users and a documented-but-removed flag actively misleads "
        "them.  Known external flags (pytest's, etc.) are allowlisted in "
        "EXTERNAL_DOC_FLAGS."
    )

    def check(self, project: Project) -> Iterator[Finding]:
        defined: Dict[str, Tuple[LintModule, ast.AST]] = {}
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and _last_segment(node.func) == "add_argument"
                ):
                    continue
                for arg in node.args:
                    if (
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and arg.value.startswith("--")
                    ):
                        defined.setdefault(arg.value, (module, node))
        if not project.docs or not defined:
            return
        doc_blob = "\n".join(project.docs.values())
        for flag in sorted(defined):
            pattern = re.escape(flag) + r"(?![A-Za-z0-9-])"
            if re.search(pattern, doc_blob) is None:
                module, node = defined[flag]
                yield self.finding(
                    module.path,
                    node,
                    f"CLI flag '{flag}' is not documented in any project "
                    f"doc ({', '.join(sorted(project.docs))})",
                )
        known = set(defined) | set(EXTERNAL_DOC_FLAGS)
        for doc_path in sorted(project.docs):
            text = project.docs[doc_path]
            reported: Set[str] = set()
            for line_number, line in enumerate(text.splitlines(), start=1):
                for match in _DOC_FLAG_RE.finditer(line):
                    flag = match.group(0)
                    if flag in known or flag in reported:
                        continue
                    reported.add(flag)
                    yield self.finding(
                        doc_path,
                        None,
                        f"documented flag '{flag}' is not defined by any "
                        "CLI in the analyzed tree — stale documentation",
                        line=line_number,
                    )


# -- rule: fork-safety ------------------------------------------------------


#: Module globals that worker-reachable code may legitimately touch.
#: ``shm._LIVE_SEGMENTS`` is *per-process* state: it registers the
#: segments *this* process created or attached so the atexit guard can
#: reclaim them; a forked child starts from a copy and only ever
#: removes its own attachments — nothing merges back, by design.
FORK_SAFE_GLOBALS: Dict[str, "frozenset[str]"] = {
    "repro.engine.shm": frozenset(
        {"_LIVE_SEGMENTS", "_PUBLISH_CACHE", "_ENTRIES_CACHE"}
    ),
}

#: Constructors that start worker processes, and the keyword naming
#: the function those workers enter through.
_WORKER_ENTRY_KEYWORDS = {"Pool": "initializer", "Process": "target"}

#: Modules whose state is process-local *by design* and explicitly
#: drained across the process boundary (the sanitize counters travel
#: through the shm workers' shared accumulator), so their internals are
#: exempt.
FORK_SAFE_MODULES = frozenset({"repro.analysis.sanitize"})

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
        "write",
    }
)

#: Constructors whose module-level result is mutable shared state.
_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict", "array"}
)


def _local_names(func: ast.FunctionDef) -> Set[str]:
    """Names bound locally in ``func`` (params and stores), which shadow
    module globals — minus names the function declares ``global``."""
    names: Set[str] = set()
    args = func.args
    for arg in (
        list(getattr(args, "posonlyargs", []))
        + args.args
        + args.kwonlyargs
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    declared_global: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
    return names - declared_global


@register_project
class ForkSafetyRule(ProjectRule):
    """Static race detection across the pool-dispatch boundary."""

    rule_id = "fork-safety"
    summary = (
        "worker-reachable code must not touch module-level mutable state, "
        "and objects already dispatched to the pool must not be mutated"
    )
    rationale = (
        "a module global mutated in a worker diverges silently between "
        "processes (fork copies it; nothing merges it back), and on "
        "fork-start platforms an object mutated after pickling into a "
        "dispatch call races the transport — both break the engine's "
        "bit-identical guarantee in ways no unit test reliably catches."
    )

    #: In-progress/final map of shipping functions, consulted by
    #: :meth:`_arg_ships` (set during one check() invocation only).
    _ships_cache: Optional[
        Dict[int, Tuple[ast.FunctionDef, bool, Set[int]]]
    ] = None

    def check(self, project: Project) -> Iterator[Finding]:
        reachable = self._reachable_from_boundary(project)
        yield from self._check_global_state(project, reachable)
        yield from self._check_shipped_mutation(project)

    # -- reachability ----------------------------------------------------

    def _boundary_seeds(self, project: Project) -> List[_FuncRef]:
        seeds: List[_FuncRef] = []
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                entry = _WORKER_ENTRY_KEYWORDS.get(
                    _last_segment(node.func) or ""
                )
                if entry is not None:
                    for keyword in node.keywords:
                        if keyword.arg == entry:
                            seeds.extend(
                                project.resolve_callable(module, keyword.value)
                            )
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DISPATCH_METHODS
                    and node.args
                ):
                    seeds.extend(
                        project.resolve_callable(module, node.args[0])
                    )
        return seeds

    def _reachable_from_boundary(self, project: Project) -> List[_FuncRef]:
        queue = self._boundary_seeds(project)
        visited: Set[int] = set()
        reachable: List[_FuncRef] = []
        while queue:
            module, func = queue.pop()
            if id(func) in visited:
                continue
            visited.add(id(func))
            reachable.append((module, func))
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    queue.extend(project.resolve_callable(module, node.func))
        return reachable

    # -- module-level state checks ---------------------------------------

    def _module_bindings(
        self, module: LintModule
    ) -> Tuple[Set[str], Set[str]]:
        """(all module-level assigned names, the *hazardous* subset).

        A module-level dict/list/set is only a fork hazard if some
        function actually mutates it — a literal table nobody writes is
        a frozen constant in all but type, and flagging it would push
        people toward noise suppressions instead of real fixes.
        """
        all_names: Set[str] = set()
        mutable: Set[str] = set()
        for node in module.tree.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                all_names.add(target.id)
                if isinstance(
                    value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                            ast.DictComp, ast.SetComp)
                ):
                    mutable.add(target.id)
                elif (
                    isinstance(value, ast.Call)
                    and _last_segment(value.func) in _MUTABLE_CTORS
                ):
                    mutable.add(target.id)
        return all_names, mutable & self._mutated_in_functions(module)

    @staticmethod
    def _mutated_in_functions(module: LintModule) -> Set[str]:
        """Names some function body of ``module`` mutates or rebinds."""
        mutated: Set[str] = set()
        for outer in ast.walk(module.tree):
            if not isinstance(outer, _FUNCTION_DEFS):
                continue
            locals_ = _local_names(outer)
            for node in ast.walk(outer):
                if isinstance(node, ast.Global):
                    mutated.update(node.names)
                    continue
                name = ForkSafetyRule._mutated_name(node)
                if name is not None and name not in locals_:
                    mutated.add(name)
        return mutated

    def _allowed(self, module: LintModule, name: str) -> bool:
        return name in FORK_SAFE_GLOBALS.get(module.module, frozenset())

    def _check_global_state(
        self, project: Project, reachable: List[_FuncRef]
    ) -> Iterator[Finding]:
        bindings_cache: Dict[str, Tuple[Set[str], Set[str]]] = {}
        for module, func in reachable:
            if module.module in FORK_SAFE_MODULES:
                continue
            if module.module not in bindings_cache:
                bindings_cache[module.module] = self._module_bindings(module)
            all_names, mutable = bindings_cache[module.module]
            locals_ = _local_names(func)
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    for name in node.names:
                        if not self._allowed(module, name):
                            yield self.finding(
                                module.path,
                                node,
                                f"worker-reachable '{func.name}' rebinds "
                                f"module global '{name}' — divergent "
                                "per-process state",
                            )
                elif (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in mutable
                    and node.id not in locals_
                    and not self._allowed(module, node.id)
                ):
                    yield self.finding(
                        module.path,
                        node,
                        f"worker-reachable '{func.name}' reads module-level "
                        f"mutable '{node.id}' — shared mutable state across "
                        "the fork boundary",
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in all_names
                    and node.func.value.id not in locals_
                    and not self._allowed(module, node.func.value.id)
                ):
                    yield self.finding(
                        module.path,
                        node,
                        f"worker-reachable '{func.name}' mutates module-level "
                        f"'{node.func.value.id}' in place",
                    )
                elif (
                    isinstance(node, (ast.Assign, ast.AugAssign))
                    and self._subscript_base(node) is not None
                ):
                    base = self._subscript_base(node)
                    if (
                        base in all_names
                        and base not in locals_
                        and not self._allowed(module, base)
                    ):
                        yield self.finding(
                            module.path,
                            node,
                            f"worker-reachable '{func.name}' assigns into "
                            f"module-level '{base}'",
                        )

    @staticmethod
    def _subscript_base(node: ast.AST) -> Optional[str]:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                return target.value.id
        return None

    # -- shipped-object mutation -----------------------------------------

    def _all_functions(
        self, project: Project
    ) -> List[Tuple[LintModule, ast.FunctionDef, bool]]:
        """(module, func, is_method) for every def in the project."""
        out: List[Tuple[LintModule, ast.FunctionDef, bool]] = []
        for module in project.iter_modules():
            for func in project.top_functions(module.module).values():
                out.append((module, func, False))
            for class_def in project.classes(module.module).values():
                for node in class_def.body:
                    if isinstance(node, _FUNCTION_DEFS):
                        out.append((module, node, True))
        return out

    @staticmethod
    def _param_index(func: ast.FunctionDef, name: str) -> Optional[int]:
        args = func.args
        params = list(getattr(args, "posonlyargs", [])) + args.args
        for index, arg in enumerate(params):
            if arg.arg == name:
                return index
        return None

    def _shipping_functions(
        self, project: Project
    ) -> Dict[int, Tuple[ast.FunctionDef, bool, Set[int]]]:
        """Fixpoint of "param index N of function F ships to the pool"."""
        functions = self._all_functions(project)
        ships: Dict[int, Tuple[ast.FunctionDef, bool, Set[int]]] = {
            id(func): (func, is_method, set())
            for _module, func, is_method in functions
        }
        # Visible to _arg_ships while the fixpoint runs, so a call to an
        # already-marked shipping function propagates on later rounds.
        self._ships_cache = ships
        for _round in range(10):
            changed = False
            for module, func, is_method in functions:
                shipped = ships[id(func)][2]
                before = len(shipped)
                for node in ast.walk(func):
                    if not isinstance(node, ast.Call):
                        continue
                    for position, arg in enumerate(node.args):
                        if not isinstance(arg, ast.Name):
                            continue
                        if not self._arg_ships(project, module, node, position):
                            continue
                        index = self._param_index(func, arg.id)
                        if index is not None:
                            shipped.add(index)
                if len(shipped) != before:
                    changed = True
            if not changed:
                break
        return ships

    def _arg_ships(
        self,
        project: Project,
        module: LintModule,
        call: ast.Call,
        position: int,
    ) -> bool:
        """Does positional ``position`` of ``call`` reach the pool?"""
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _DISPATCH_METHODS
        ):
            return True
        ships = getattr(self, "_ships_cache", None)
        if ships is None:
            return False
        via_attribute = isinstance(call.func, ast.Attribute)
        for _target_module, target in project.resolve_callable(
            module, call.func
        ):
            entry = ships.get(id(target))
            if entry is None:
                continue
            _func, is_method, shipped = entry
            offset = 1 if (is_method and via_attribute) else 0
            if position + offset in shipped:
                return True
        return False

    def _check_shipped_mutation(self, project: Project) -> Iterator[Finding]:
        self._ships_cache = self._shipping_functions(project)
        try:
            for module, func, _is_method in self._all_functions(project):
                if module.module in FORK_SAFE_MODULES:
                    continue
                ship_lines: Dict[str, int] = {}
                for node in ast.walk(func):
                    if not isinstance(node, ast.Call):
                        continue
                    for position, arg in enumerate(node.args):
                        if isinstance(arg, ast.Name) and self._arg_ships(
                            project, module, node, position
                        ):
                            line = ship_lines.get(arg.id)
                            if line is None or node.lineno < line:
                                ship_lines[arg.id] = node.lineno
                if not ship_lines:
                    continue
                for node in ast.walk(func):
                    name = self._mutated_name(node)
                    if name is None:
                        continue
                    shipped_at = ship_lines.get(name)
                    if shipped_at is not None and node.lineno > shipped_at:
                        yield self.finding(
                            module.path,
                            node,
                            f"'{name}' was dispatched to the worker pool at "
                            f"line {shipped_at} and is mutated afterwards — "
                            "on fork-start platforms this races the "
                            "transport pickling",
                        )
        finally:
            self._ships_cache = None

    @staticmethod
    def _mutated_name(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            return node.func.value.id
        base = ForkSafetyRule._subscript_base(node)
        if base is not None:
            return base
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    return target.value.id
        return None


# -- rule: error-taxonomy-reachability --------------------------------------


@register_project
class ErrorTaxonomyRule(ProjectRule):
    """Every error class is exported and actually reachable."""

    rule_id = "error-taxonomy-reachability"
    summary = (
        "each class in the errors module is listed in __all__ and raised "
        "(or warned, or subclassed) somewhere in the tree"
    )
    rationale = (
        "recovery code keys off the error *class*; a taxonomy member "
        "nothing raises is a promise the runtime never keeps, and one "
        "missing from __all__ hides from the API surface the supervisor "
        "tests import against."
    )

    def check(self, project: Project) -> Iterator[Finding]:
        raised, warned = self._usage_names(project)
        for module in project.iter_modules():
            if module.module.split(".")[-1] != "errors":
                continue
            classes = project.classes(module.module)
            exported = self._declared_all(module)
            subclassed = {
                _last_segment(base)
                for class_def in classes.values()
                for base in class_def.bases
            }
            for name in sorted(classes):
                class_def = classes[name]
                if exported is not None and name not in exported:
                    yield self.finding(
                        module.path,
                        class_def,
                        f"error class '{name}' is not exported in __all__",
                    )
                if (
                    name not in raised
                    and name not in warned
                    and name not in subclassed
                ):
                    yield self.finding(
                        module.path,
                        class_def,
                        f"error class '{name}' is never raised, never passed "
                        "to warnings.warn, and roots no subclass — "
                        "unreachable taxonomy member",
                    )
            if exported is not None:
                defined = set(classes) | set(
                    project.top_functions(module.module)
                )
                for node in module.tree.body:
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                defined.add(target.id)
                for name in sorted(exported - defined):
                    yield self.finding(
                        module.path,
                        None,
                        f"__all__ exports '{name}' which the module does "
                        "not define — stale export",
                        line=1,
                    )

    @staticmethod
    def _declared_all(module: LintModule) -> Optional[Set[str]]:
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        if isinstance(node.value, (ast.List, ast.Tuple)):
                            return {
                                element.value
                                for element in node.value.elts
                                if isinstance(element, ast.Constant)
                                and isinstance(element.value, str)
                            }
        return None

    @staticmethod
    def _usage_names(project: Project) -> Tuple[Set[str], Set[str]]:
        raised: Set[str] = set()
        warned: Set[str] = set()
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    name = _last_segment(exc)
                    if name is not None:
                        raised.add(name)
                elif (
                    isinstance(node, ast.Call)
                    and _last_segment(node.func) == "warn"
                ):
                    candidates = list(node.args[1:]) + [
                        keyword.value
                        for keyword in node.keywords
                        if keyword.arg == "category"
                    ]
                    for candidate in candidates:
                        name = _last_segment(candidate)
                        if name is not None:
                            warned.add(name)
        return raised, warned


# -- rule: checkpoint-schema-drift ------------------------------------------


@register_project
class CheckpointSchemaRule(ProjectRule):
    """Pickled state tuples must agree between writer and reader."""

    rule_id = "checkpoint-schema-drift"
    summary = "__getstate__/__setstate__ tuple arities match"
    rationale = (
        "a state-tuple drift is invisible until a table crosses a "
        "process boundary — or worse, arrives wrong.  The tuple a "
        "__getstate__ produces and its __setstate__ unpacks are one "
        "contract spread over two methods; this rule pins them together."
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            for class_def in project.classes(module.module).values():
                yield from self._check_state_pair(module, class_def)

    def _check_state_pair(
        self, module: LintModule, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            node.name: node
            for node in class_def.body
            if isinstance(node, _FUNCTION_DEFS)
        }
        getstate = methods.get("__getstate__")
        setstate = methods.get("__setstate__")
        if getstate is None or setstate is None:
            return
        produced: Set[int] = set()
        for node in ast.walk(getstate):
            if isinstance(node, ast.Return) and isinstance(
                node.value, ast.Tuple
            ):
                produced.add(len(node.value.elts))
        state_params = {
            arg.arg for arg in setstate.args.args[1:]
        }  # skip self
        consumed: Set[int] = set()
        for node in ast.walk(setstate):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Name)
                and node.value.id in state_params
            ):
                consumed.add(len(node.targets[0].elts))
        if produced and consumed and not (produced & consumed):
            yield self.finding(
                module.path,
                setstate,
                f"{class_def.name}.__getstate__ produces a "
                f"{sorted(produced)}-tuple but __setstate__ unpacks "
                f"{sorted(consumed)} elements — pickle round-trip breaks",
            )
