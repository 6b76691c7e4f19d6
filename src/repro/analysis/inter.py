"""Interprocedural summary-based analysis (``repro-lint --flow --inter``).

The PR 9 flow rules are strictly intraprocedural: a helper that closes a
file or appends to the WAL is opaque to them — passing a resource to
*any* call is an escape, and a mutation hidden in
``self._flush_logs()`` is invisible.  This module closes that
blind spot with per-function **effect summaries** computed bottom-up
over the project call graph (:meth:`Project.call_graph`):

* strongly connected components are visited in reverse topological
  order (callees before callers, Tarjan's algorithm, iterative);
* within an SCC, summaries iterate to a least fixpoint from the empty
  summary;
* unknown callees (stdlib, third-party, nested defs, unresolved
  attribute calls) are havoc'd conservatively: they provide *no*
  beneficial effect (no release, no append) and may raise —
  but they are never assigned harmful effects they were not observed
  to have.

Two rule families consume the summaries, registered in
``INTER_RULES`` and reported only under ``--inter``:

* **inter-resource-leak** — ownership that crosses a call: helper
  constructors (``returns_ownership`` clauses or inferred
  returns-owned summaries) are acquire sites in the caller; helper
  teardown (a callee that must-releases its parameter, or a
  ``transfers`` clause) is a release stop — ``STOP_NORMAL_ONLY`` when
  the callee may raise before releasing, so the caller's exception
  edge stays honest.
* **inter-wal-order** — a ``self`` method call whose summary mutates
  daemon state is a mutation site for the WAL ordering check; a callee
  that must-appends counts as the append.

Summaries use group ids like ``"append:2"`` (clause tag + index of the
spec within its kind) so "any token of the clause" must-semantics
survives hashing into the ``must_groups`` set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.analysis.core import Finding, LintModule, apply_suppressions
from repro.analysis.flow import (
    CFG,
    Entry,
    FlowContext,
    FlowSpec,
    OrderSpec,
    ResourceSpec,
    STOP_NORMAL_ONLY,
    WalOrderRule,
    _acquire_call,
    _acquire_sites,
    _call_attr,
    _call_stop,
    _callee_matches,
    _contains_name,
    _direct_or_container,
    _format_path,
    _is_ref,
    _ref_string,
    _releases,
    _spec_applies,
    _walk_local,
    build_cfg,
    collect_specs,
    entry_node,
    find_resource_leaks,
    reach_without,
)
from repro.analysis.xmodule import FuncInfo, Project

__all__ = [
    "FunctionSummary",
    "InterContext",
    "InterRule",
    "INTER_RULES",
    "register_inter",
    "active_inter_rules",
    "build_inter_context",
    "compute_summaries",
    "inter_findings_for_module",
    "analyze_inter",
    "dep_fingerprint",
]

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


# -- summaries ---------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSummary:
    """The interprocedural effects of one function, as its callers see it.

    Resource effects are keyed ``(param index, resource-spec index)``;
    ordering effects are group ids ``"tag:spec-index"`` in
    ``must_groups`` (holds on every normal path).
    """

    key: str
    param_names: Tuple[str, ...] = ()
    arg_offset: int = 0
    releases_on_return: FrozenSet[Tuple[int, int]] = frozenset()
    may_raise_before_release: FrozenSet[Tuple[int, int]] = frozenset()
    sinks: FrozenSet[Tuple[int, int]] = frozenset()
    returns_owned: FrozenSet[int] = frozenset()
    mutated_self_attrs: FrozenSet[str] = frozenset()
    must_groups: FrozenSet[str] = frozenset()

    def stable_repr(self) -> str:
        """A deterministic rendering for cache fingerprints."""
        return "|".join(
            [
                self.key,
                ",".join(self.param_names),
                str(self.arg_offset),
                repr(sorted(self.releases_on_return)),
                repr(sorted(self.may_raise_before_release)),
                repr(sorted(self.sinks)),
                repr(sorted(self.returns_owned)),
                repr(sorted(self.mutated_self_attrs)),
                repr(sorted(self.must_groups)),
            ]
        )


def _param_names(func: ast.FunctionDef) -> Tuple[str, ...]:
    args = func.args
    return tuple(
        a.arg for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    )


def _arg_offset(info: FuncInfo) -> int:
    """1 when callers omit the bound first parameter, else 0."""
    if info.class_name is None:
        return 0
    params = _param_names(info.node)
    if not params or params[0] not in ("self", "cls"):
        return 0
    for decorator in info.node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "staticmethod":
            return 0
    return 1


def _param_indices(
    call: ast.Call, var: str, summary: FunctionSummary
) -> Optional[List[int]]:
    """Callee param indices ``var`` is passed at, or None if unmappable.

    ``None`` means the caller cannot prove where (or whether only
    there) the resource lands — starred args, container wrapping, or a
    keyword the callee does not declare.  ``[]`` means ``var`` is not
    an argument of this call at all.
    """
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        involved = any(
            _contains_name(value, var)
            for value in list(call.args) + [k.value for k in call.keywords]
        )
        return None if involved else []
    indices: List[int] = []
    for position, arg in enumerate(call.args):
        if _is_ref(arg, var):
            indices.append(position + summary.arg_offset)
        elif _direct_or_container(arg, var):
            return None
    for keyword in call.keywords:
        if keyword.arg is None:
            if _contains_name(keyword.value, var):
                return None
            continue
        if _is_ref(keyword.value, var):
            if keyword.arg not in summary.param_names:
                return None
            indices.append(summary.param_names.index(keyword.arg))
        elif _direct_or_container(keyword.value, var):
            return None
    if any(index >= len(summary.param_names) for index in indices):
        return None
    return indices


def _transfer_call(call: ast.Call, var: str, spec: ResourceSpec) -> bool:
    if not spec.transfers:
        return False
    attr = _call_attr(call.func)
    if attr is None or attr not in spec.transfers:
        return False
    values = list(call.args) + [k.value for k in call.keywords]
    return any(_is_ref(value, var) for value in values)


class _Resolver:
    """Summary lookups for the calls of one function, with caching."""

    def __init__(
        self,
        project: Project,
        summaries: Dict[str, FunctionSummary],
        info: FuncInfo,
        key_cache: Optional[Dict[int, List[str]]] = None,
    ) -> None:
        self.project = project
        self.summaries = summaries
        self.info = info
        self._keys = key_cache if key_cache is not None else {}

    def keys(self, call: ast.Call) -> List[str]:
        cached = self._keys.get(id(call))
        if cached is None:
            cached = self.project.resolve_call_keys(
                self.info.module, call.func, self.info.class_name
            )
            self._keys[id(call)] = cached
        return cached

    def known(self, keys: Sequence[str]) -> bool:
        return bool(keys) and all(key in self.summaries for key in keys)

    def calls_in(self, entry: Entry) -> List[ast.Call]:
        return [
            sub
            for sub in _walk_local(entry_node(entry))
            if isinstance(sub, ast.Call)
        ]

    # -- resource effects ------------------------------------------------

    def release_verdict(
        self, entry: Entry, var: str, spec: ResourceSpec, spec_index: int
    ) -> object:
        """False, True, or STOP_NORMAL_ONLY for this entry's calls."""
        best: object = False
        for call in self.calls_in(entry):
            values = list(call.args) + [k.value for k in call.keywords]
            if not any(_direct_or_container(value, var) for value in values):
                continue
            if _transfer_call(call, var, spec):
                return True
            keys = self.keys(call)
            if not self.known(keys):
                continue
            releases_all = True
            never_raises_first = True
            for key in keys:
                summary = self.summaries[key]
                indices = _param_indices(call, var, summary)
                if not indices:
                    releases_all = False
                    break
                for index in indices:
                    if (index, spec_index) not in summary.releases_on_return:
                        releases_all = False
                        break
                    if (index, spec_index) in summary.may_raise_before_release:
                        never_raises_first = False
                if not releases_all:
                    break
            if releases_all:
                if never_raises_first:
                    return True
                best = STOP_NORMAL_ONLY
        return best

    def safe_handoff(self, call: ast.Call, var: str, spec_index: int) -> bool:
        """Passing ``var`` to this call keeps ownership with the caller."""
        keys = self.keys(call)
        if not self.known(keys):
            return False
        for key in keys:
            summary = self.summaries[key]
            indices = _param_indices(call, var, summary)
            if indices is None:
                return False
            if any((index, spec_index) in summary.sinks for index in indices):
                return False
        return True

    # -- ordering effects ------------------------------------------------

    def callee_must(self, entry: Entry, group: str) -> bool:
        for call in self.calls_in(entry):
            keys = self.keys(call)
            if self.known(keys) and all(
                group in self.summaries[key].must_groups for key in keys
            ):
                return True
        return False

    def self_call_key(self, call: ast.Call) -> Optional[str]:
        """The own-class method key of a ``self.m(...)`` call, if any."""
        func = call.func
        if (
            self.info.class_name is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            key = (
                f"{self.info.module.module}:"
                f"{self.info.class_name}.{func.attr}"
            )
            if key in self.summaries:
                return key
        return None


# -- interprocedural escape analysis ----------------------------------------


def _escapes_inter(
    func: ast.FunctionDef,
    var: str,
    spec: ResourceSpec,
    spec_index: int,
    resolver: _Resolver,
) -> bool:
    """The ``_escapes`` refinement: summarized hand-offs do not escape.

    Same flow-insensitive walk as the intraprocedural version, except a
    call passing ``var`` is transparent when every resolved callee is
    summarized and none of them sinks the parameter — and a
    ``transfers`` call hands ownership off on purpose (a stop, handled
    by the leak search, not an escape).
    """
    for node in _walk_local(func):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _contains_name(node.value, var):
                return True
        elif isinstance(node, ast.Raise):
            if node.exc is not None and _contains_name(node.exc, var):
                return True
        elif isinstance(node, ast.Call):
            if _callee_matches(node.func, spec.release_funcs):
                continue
            values = list(node.args) + [k.value for k in node.keywords]
            if not any(_direct_or_container(value, var) for value in values):
                continue
            if _transfer_call(node, var, spec):
                continue
            if resolver.safe_handoff(node, var, spec_index):
                continue
            return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is not None and value is not getattr(node, "target", None):
                if _direct_or_container(value, var) and not isinstance(
                    value, ast.Call
                ):
                    return True
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if value is not None and _direct_or_container(value, var):
                        return True
    for node in ast.walk(func):
        if isinstance(node, _DEF_NODES) and node is not func:
            body = getattr(node, "body", None)
            if body is None:
                continue
            if not isinstance(body, list):
                body = [body]  # Lambda
            for stmt in body:
                if _contains_name(stmt, var):
                    return True
    return False


# -- token predicates --------------------------------------------------------


def _token_call_in(entry: Entry, tokens: Sequence[str]) -> bool:
    """The ``_call_stop`` predicate, applied to one entry."""
    if not tokens:
        return False
    return _call_stop(tokens)(entry)


# -- the call-graph fixpoint -------------------------------------------------


def _tarjan_sccs(graph: Dict[str, Tuple[str, ...]]) -> List[List[str]]:
    """SCCs in reverse topological order (callees first), iteratively."""
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0
    for root in graph:
        if root in index_of:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: List[Tuple[str, Iterator[str]]] = [(root, iter(graph.get(root, ())))]
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in graph:
                    continue
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def _sites(
    cfg: CFG, predicate: Callable[[Entry], bool]
) -> List[Tuple[int, int, Entry]]:
    found: List[Tuple[int, int, Entry]] = []
    for block in cfg.blocks:
        for position, entry in enumerate(block.entries):
            if predicate(entry):
                found.append((block.index, position, entry))
    return found


def _must_on_exit(cfg: CFG, stop: Callable[[Entry], object]) -> bool:
    """Every path from entry to the normal exit hits a stop."""
    return (
        reach_without(
            cfg,
            [(cfg.entry, 0)],
            stop,
            goal_blocks=frozenset({cfg.exit}),
            stop_on_except_origin=False,
        )
        is None
    )


def _summarize(
    info: FuncInfo,
    cfg: CFG,
    resolver: _Resolver,
    resource_specs: Sequence[ResourceSpec],
    order_specs: Sequence[OrderSpec],
) -> FunctionSummary:
    func = info.node
    params = _param_names(func)
    offset = _arg_offset(info)
    in_init = func.name == "__init__" and bool(params) and params[0] == "self"

    releases: Set[Tuple[int, int]] = set()
    raises_first: Set[Tuple[int, int]] = set()
    sinks: Set[Tuple[int, int]] = set()
    returns_owned: Set[int] = set()

    for spec_index, spec in enumerate(resource_specs):
        for param_index, param in enumerate(params):
            if param in ("self", "cls"):
                continue

            def release_stop(
                entry: Entry, v: str = param, s: ResourceSpec = spec, i: int = spec_index
            ) -> object:
                if _releases(entry, v, s, in_init):
                    return True
                return resolver.release_verdict(entry, v, s, i)

            if _escapes_inter(func, param, spec, spec_index, resolver):
                sinks.add((param_index, spec_index))
            # cheap prefilter: no release site anywhere means no release
            # effects, so skip the two path searches
            if not any(
                release_stop(entry)
                for block in cfg.blocks
                for entry in block.entries
            ):
                continue
            if (
                reach_without(
                    cfg,
                    [(cfg.entry, 0)],
                    release_stop,
                    goal_blocks=frozenset({cfg.exit}),
                )
                is None
            ):
                releases.add((param_index, spec_index))
                if (
                    reach_without(
                        cfg,
                        [(cfg.entry, 0)],
                        release_stop,
                        goal_blocks=frozenset({cfg.raise_exit}),
                    )
                    is not None
                ):
                    raises_first.add((param_index, spec_index))

        # returns-owned inference: a fresh acquire (or an owned result of
        # a summarized constructor helper) returned directly
        owned_vars = {
            site[0]
            for site in _acquire_sites(cfg, spec, in_init)
            if site[3] == "local"
        }
        for block in cfg.blocks:
            for entry in block.entries:
                node = entry_node(entry)
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                value = getattr(node, "value", None)
                if not isinstance(value, ast.Call):
                    continue
                if not _summary_returns_owned(value, spec, spec_index, resolver):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if len(targets) == 1:
                    ref = _ref_string(targets[0])
                    if ref is not None and "." not in ref:
                        owned_vars.add(ref)
        for node in _walk_local(func):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            returned_inline = isinstance(
                node.value, ast.Call
            ) and (
                _acquire_call(node.value, spec) is not None
                or _summary_returns_owned(node.value, spec, spec_index, resolver)
            )
            if returned_inline or any(
                _direct_or_container(node.value, var) for var in owned_vars
            ):
                returns_owned.add(spec_index)
                break

    mutated: Set[str] = set()
    if info.class_name is not None and params and params[0] == "self":
        for node in _walk_local(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = WalOrderRule._self_state(target)
                    if attr is not None:
                        mutated.add(attr)
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if (
                    isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in WalOrderRule._MUTATORS
                ):
                    attr = WalOrderRule._self_state(func_expr.value)
                    if attr is not None:
                        mutated.add(attr)
                else:
                    key = resolver.self_call_key(node)
                    if key is not None:
                        mutated |= resolver.summaries[key].mutated_self_attrs

    must_groups: Set[str] = set()

    for order_index, order in enumerate(order_specs):
        group = f"append:{order_index}"

        def append_stop(entry: Entry, g: str = group, o: OrderSpec = order) -> bool:
            return _token_call_in(entry, o.append) or resolver.callee_must(
                entry, g
            )

        if _sites(cfg, append_stop) and _must_on_exit(cfg, append_stop):
            must_groups.add(group)

    return FunctionSummary(
        key=info.key,
        param_names=params,
        arg_offset=offset,
        releases_on_return=frozenset(releases),
        may_raise_before_release=frozenset(raises_first),
        sinks=frozenset(sinks),
        returns_owned=frozenset(returns_owned),
        mutated_self_attrs=frozenset(mutated),
        must_groups=frozenset(must_groups),
    )


def _summary_returns_owned(
    call: ast.Call,
    spec: ResourceSpec,
    spec_index: int,
    resolver: _Resolver,
) -> bool:
    """Does this call hand the caller a resource it now owns?"""
    attr = _call_attr(call.func)
    if attr is not None and attr in spec.returns_ownership:
        return True
    keys = resolver.keys(call)
    return resolver.known(keys) and all(
        spec_index in resolver.summaries[key].returns_owned for key in keys
    )


# -- context -----------------------------------------------------------------


@dataclass
class InterContext:
    """Project-wide state shared by every interprocedural rule."""

    project: Project
    specs: Sequence[FlowSpec]
    resource_specs: List[ResourceSpec]
    order_specs: List[OrderSpec]
    summaries: Dict[str, FunctionSummary]
    _cfgs: Dict[str, CFG] = field(default_factory=dict)
    _key_cache: Dict[int, List[str]] = field(default_factory=dict)

    def cfg(self, key: str) -> CFG:
        if key not in self._cfgs:
            self._cfgs[key] = build_cfg(self.project.functions()[key].node)
        return self._cfgs[key]

    def resolver(self, info: FuncInfo) -> _Resolver:
        return _Resolver(self.project, self.summaries, info, self._key_cache)

    def module_functions(self, module: LintModule) -> List[FuncInfo]:
        return [
            info
            for info in self.project.functions().values()
            if info.module.module == module.module
        ]


def compute_summaries(
    project: Project,
    resource_specs: Sequence[ResourceSpec],
    order_specs: Sequence[OrderSpec],
    cfgs: Optional[Dict[str, CFG]] = None,
    key_cache: Optional[Dict[int, List[str]]] = None,
) -> Dict[str, FunctionSummary]:
    """Bottom-up summaries over the call graph, SCCs to a fixpoint.

    Callees are summarized before callers; mutual recursion iterates
    from the empty summary until stable (effects only accumulate, so
    the iteration cap is a backstop, not a correctness device).
    """
    functions = project.functions()
    graph = project.call_graph()
    summaries: Dict[str, FunctionSummary] = {}
    if cfgs is None:
        cfgs = {}
    for scc in _tarjan_sccs(graph):
        for _round in range(2 * len(scc) + 1):
            changed = False
            for key in scc:
                info = functions[key]
                if key not in cfgs:
                    cfgs[key] = build_cfg(info.node)
                resolver = _Resolver(project, summaries, info, key_cache)
                summary = _summarize(
                    info,
                    cfgs[key],
                    resolver,
                    resource_specs,
                    order_specs,
                )
                if summaries.get(key) != summary:
                    summaries[key] = summary
                    changed = True
            if not changed:
                break
    return summaries


def build_inter_context(
    modules: Sequence[LintModule], specs: Sequence[FlowSpec]
) -> InterContext:
    """Assemble the project, call graph, and summaries for ``--inter``."""
    project = Project({module.module: module for module in modules})
    resource_specs = [s for s in specs if isinstance(s, ResourceSpec)]
    order_specs = [s for s in specs if isinstance(s, OrderSpec)]
    cfgs: Dict[str, CFG] = {}
    key_cache: Dict[int, List[str]] = {}
    summaries = compute_summaries(
        project, resource_specs, order_specs, cfgs, key_cache
    )
    return InterContext(
        project=project,
        specs=list(specs),
        resource_specs=resource_specs,
        order_specs=order_specs,
        summaries=summaries,
        _cfgs=cfgs,
        _key_cache=key_cache,
    )


# -- rules -------------------------------------------------------------------


class InterRule:
    """Base class for one interprocedural check over a module."""

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""

    def check(
        self, module: LintModule, context: InterContext
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: LintModule, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=module.path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )


#: The interprocedural registry: rule id -> singleton rule instance.
INTER_RULES: Dict[str, InterRule] = {}


def register_inter(cls: Type[InterRule]) -> Type[InterRule]:
    if not cls.rule_id:
        raise ValueError(f"inter rule {cls.__name__} has no rule_id")
    if cls.rule_id in INTER_RULES:
        raise ValueError(f"duplicate inter rule id: {cls.rule_id}")
    INTER_RULES[cls.rule_id] = cls()
    return cls


def active_inter_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[InterRule]:
    """Resolve ``--select`` / ``--ignore`` into an inter-rule list."""
    wanted = set(select) if select is not None else set(INTER_RULES)
    wanted -= set(ignore or ())
    unknown = wanted - set(INTER_RULES)
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [
        rule
        for rule_id, rule in sorted(INTER_RULES.items())
        if rule_id in wanted
    ]


@register_inter
class InterResourceLeakRule(InterRule):
    rule_id = "inter-resource-leak"
    summary = (
        "resources acquired through or released by helpers reach a "
        "release on every path"
    )
    rationale = (
        "the intraprocedural pass treats every hand-off as an escape and "
        "every helper constructor as opaque, so a leak split across a "
        "helper boundary — the exact shape of the WAL teardown paths — "
        "is invisible to it"
    )

    def check(
        self, module: LintModule, context: InterContext
    ) -> Iterator[Finding]:
        applicable = [
            (index, spec)
            for index, spec in enumerate(context.resource_specs)
            if _spec_applies(spec, module)
        ]
        if not applicable:
            return
        intra_context = FlowContext(
            specs=[s for s in context.specs if _spec_applies(s, module)]
        )
        already = {
            (leak.function, leak.var, leak.line)
            for leak in find_resource_leaks(module, intra_context)
        }
        for info in context.module_functions(module):
            cfg = context.cfg(info.key)
            resolver = context.resolver(info)
            params = _param_names(info.node)
            in_init = (
                info.node.name == "__init__"
                and bool(params)
                and params[0] == "self"
            )
            for spec_index, spec in applicable:
                sites = [
                    site
                    for site in _acquire_sites(cfg, spec, in_init)
                    if site[3] == "local"
                ]
                sites.extend(
                    _owned_call_sites(cfg, spec, spec_index, resolver)
                )
                for var, block_index, position, _scope, node in sites:
                    if var in params:
                        continue  # caller-owned, the caller's problem
                    if _escapes_inter(
                        info.node, var, spec, spec_index, resolver
                    ):
                        continue

                    def release_stop(
                        entry: Entry,
                        v: str = var,
                        s: ResourceSpec = spec,
                        i: int = spec_index,
                    ) -> object:
                        if _releases(entry, v, s, in_init):
                            return True
                        return resolver.release_verdict(entry, v, s, i)

                    witness = reach_without(
                        cfg,
                        [(block_index, position + 1)],
                        release_stop,
                        goal_blocks=frozenset({cfg.exit, cfg.raise_exit}),
                    )
                    if witness is None:
                        continue
                    line = getattr(node, "lineno", 0)
                    if (info.node.name, var, line) in already:
                        continue  # the intraprocedural pass reports it
                    where = (
                        "the exception exit"
                        if witness.end_kind == "raise-exit"
                        else "a function exit"
                    )
                    path = _format_path(cfg, witness)
                    yield self.finding(
                        module,
                        line,
                        getattr(node, "col_offset", 0),
                        f"{spec.resource} {var!r} acquired in "
                        f"{info.node.name}() can reach {where} without a "
                        f"release, counting helper releases and transfers "
                        f"({path}); release it on every path or hand "
                        "ownership off explicitly",
                    )


def _owned_call_sites(
    cfg: CFG,
    spec: ResourceSpec,
    spec_index: int,
    resolver: _Resolver,
) -> List[Tuple[str, int, int, str, ast.AST]]:
    """Acquire sites where a helper hands the caller a fresh resource."""
    sites: List[Tuple[str, int, int, str, ast.AST]] = []
    for block in cfg.blocks:
        for position, entry in enumerate(block.entries):
            node = entry_node(entry)
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = getattr(node, "value", None)
            if not isinstance(value, ast.Call):
                continue
            if not _summary_returns_owned(value, spec, spec_index, resolver):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if len(targets) != 1:
                continue
            target = targets[0]
            if spec.tuple_result and isinstance(target, ast.Tuple):
                if not target.elts:
                    continue
                target = target.elts[0]
            ref = _ref_string(target)
            if ref is None or "." in ref:
                continue
            sites.append((ref, block.index, position, "local", node))
    return sites


@register_inter
class InterWalOrderRule(InterRule):
    rule_id = "inter-wal-order"
    summary = (
        "helper-hidden state mutations are sequenced after the WAL "
        "append too"
    )
    rationale = (
        "the intraprocedural wal-order rule only sees direct writes to "
        "self; a flush helper that mutates the pending queues is a "
        "mutation the WAL must still precede, or recovery replays a "
        "stream that never held the event"
    )

    def check(
        self, module: LintModule, context: InterContext
    ) -> Iterator[Finding]:
        applicable = [
            (index, spec)
            for index, spec in enumerate(context.order_specs)
            if _spec_applies(spec, module)
        ]
        if not applicable:
            return
        for info in context.module_functions(module):
            if info.class_name is None:
                continue
            for order_index, spec in applicable:
                if info.node.name not in spec.functions:
                    continue
                cfg = context.cfg(info.key)
                resolver = context.resolver(info)
                group = f"append:{order_index}"

                def append_stop(
                    entry: Entry, s: OrderSpec = spec, g: str = group
                ) -> bool:
                    return _token_call_in(
                        entry, s.append
                    ) or resolver.callee_must(entry, g)

                targets: Dict[Tuple[int, int], Tuple[str, str, int, int]] = {}
                for block in cfg.blocks:
                    for position, entry in enumerate(block.entries):
                        if append_stop(entry):
                            continue
                        node = entry_node(entry)
                        for call in resolver.calls_in(entry):
                            key = resolver.self_call_key(call)
                            if key is None:
                                continue
                            mutated = sorted(
                                resolver.summaries[key].mutated_self_attrs
                                - set(spec.allow)
                            )
                            if not mutated:
                                continue
                            targets[(block.index, position)] = (
                                call.func.attr,  # type: ignore[attr-defined]
                                ", ".join(f"self.{a}" for a in mutated),
                                getattr(node, "lineno", 0),
                                getattr(node, "col_offset", 0),
                            )
                            break
                for position, (callee, attrs, line, col) in sorted(
                    targets.items(), key=lambda kv: kv[1][2:]
                ):
                    witness = reach_without(
                        cfg,
                        [(cfg.entry, 0)],
                        append_stop,
                        goal_positions=frozenset({position}),
                        stop_on_except_origin=False,
                    )
                    if witness is None:
                        continue
                    path = _format_path(cfg, witness)
                    yield self.finding(
                        module,
                        line,
                        col,
                        f"self.{callee}() called from {info.node.name}() "
                        f"mutates {attrs} and is reachable before the WAL "
                        f"append ({'/'.join(spec.append)}) on some path "
                        f"({path}); append before mutating so recovery "
                        "replays the event",
                    )


# -- entry points ------------------------------------------------------------


def inter_findings_for_module(
    module: LintModule,
    context: InterContext,
    rules: Optional[Sequence[InterRule]] = None,
) -> List[Finding]:
    """Run the interprocedural rules over one module; suppressions applied.

    The per-module unit the CLI caches: results depend on this module's
    source, the collected spec set, and the summaries of its
    out-of-module transitive callees (:func:`dep_fingerprint`).
    """
    if rules is None:
        rules = active_inter_rules()
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(module, context))
    return apply_suppressions(findings, [module])


def analyze_inter(
    modules: Sequence[LintModule],
    rules: Optional[Sequence[InterRule]] = None,
    specs: Optional[Sequence[FlowSpec]] = None,
) -> List[Finding]:
    """The ``--inter`` pass: summaries everywhere, then check each module."""
    if rules is None:
        rules = active_inter_rules()
    if specs is None:
        specs, _spec_findings = collect_specs(modules)
    context = build_inter_context(modules, specs)
    findings: List[Finding] = []
    for module in modules:
        findings.extend(inter_findings_for_module(module, context, rules))
    return apply_suppressions(findings, modules)


def dep_fingerprint(module: LintModule, context: InterContext) -> str:
    """Hash of the summaries this module's functions transitively call.

    Only *out-of-module* callees count — the module's own source is
    already part of the cache key.  A behavioural edit to a helper in
    another module changes its summary, changes this fingerprint, and
    busts the caller's cached entry; a comment-only edit leaves the
    summary (and so the fingerprint) alone.
    """
    import hashlib

    graph = context.project.call_graph()
    functions = context.project.functions()
    seen: Set[str] = set()
    frontier = [
        key
        for key, info in functions.items()
        if info.module.module == module.module
    ]
    while frontier:
        key = frontier.pop()
        if key in seen:
            continue
        seen.add(key)
        frontier.extend(graph.get(key, ()))
    digest = hashlib.sha256()
    for key in sorted(seen):
        if functions[key].module.module == module.module:
            continue
        summary = context.summaries.get(key)
        rendered = summary.stable_repr() if summary is not None else "?"
        digest.update(f"{key}={rendered}\n".encode("utf-8"))
    return digest.hexdigest()
