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
* **error-taxonomy-reachability** — every class in ``repro.errors`` is
  exported in ``__all__`` and actually raised (or warned, or serves as
  a family root) somewhere in the tree.
* **checkpoint-schema-drift** — pickled state tuples stay consistent
  between writer and reader: ``__getstate__`` / ``__setstate__``
  arity.  (The checkpoint *file* needs no such rule: one field table
  drives both directions of :mod:`repro.engine.state`'s layout.)

Findings reuse the PR 4 :class:`~repro.analysis.core.Finding` type and
per-line suppression comments; ``repro-lint --project`` is the CLI
front end.  The call graph is deliberately over-approximate (attribute
calls resolve by method name across every project class) — for a tree
this size, a few extra edges are far cheaper than a missed callee.
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
from repro.analysis.rules import _last_segment

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
        "a state-tuple drift is invisible until a table is pickled and "
        "unpickled — or worse, arrives wrong.  The tuple a "
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
