"""Intraprocedural facts and interprocedural summaries for the flow tier.

Two fixed points are computed over the call graph:

* :attr:`FlowSummaries.unguarded_write_params` — for FLW010: parameters
  that, when bound to a shared population buffer, reach a subscript
  write whose index carries no row guard (directly, or by being
  passed onward to another function with such a parameter).
* :attr:`FlowSummaries.sink_params` — for FLW011: parameters whose
  value reaches a protocol-draw call site (directly as an argument to a
  function named like a protocol entry point, or transitively).

Both record an evidence chain (``qualname:line`` hops) so findings can
show *how* the value travels.

The taint/alias propagation is a deliberately simple two-pass,
source-order dataflow over names: an assignment whose right-hand side
contains a seeded name (or matches a seed predicate) marks its targets.
Attributes and container elements are not tracked — the summary layer
is where cross-function precision comes from, not the local lattice.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..rules import LintConfig, dotted_name, is_slice_view
from .callgraph import CallGraph
from .project import FunctionModel, ProjectModel

__all__ = [
    "FlowSummaries",
    "FunctionFacts",
    "WriteRecord",
    "build_summaries",
    "contains_buffer_read",
    "derive_names",
    "names_in",
]


def names_in(expr: ast.AST) -> Set[str]:
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def _target_names(target: ast.expr) -> List[str]:
    """Plain names bound by an assignment/loop target, tuples flattened."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for elt in target.elts:
            names.extend(_target_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


class _TaintPass(ast.NodeVisitor):
    """One source-order propagation pass for name-level taint."""

    def __init__(
        self,
        tainted: Set[str],
        predicate: Optional[Callable[[ast.expr], bool]],
    ) -> None:
        self.tainted = tainted
        self.predicate = predicate

    def _is_tainted(self, expr: ast.expr) -> bool:
        if self.predicate is not None and self.predicate(expr):
            return True
        return bool(names_in(expr) & self.tainted)

    def _mark(self, targets: Sequence[ast.expr]) -> None:
        for target in targets:
            self.tainted.update(_target_names(target))

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_tainted(node.value):
            self._mark(node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and self._is_tainted(node.value):
            self._mark([node.target])
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._is_tainted(node.value):
            self._mark([node.target])
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._is_tainted(node.iter):
            self._mark([node.target])
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        if self._is_tainted(node.value):
            self._mark([node.target])
        self.generic_visit(node)


def derive_names(
    function_node: ast.FunctionDef,
    seeds: Set[str],
    predicate: Optional[Callable[[ast.expr], bool]] = None,
    passes: int = 2,
) -> Set[str]:
    """Names transitively assigned from ``seeds`` (or predicate hits).

    Two passes pick up simple forward references and loop-carried
    assignments without a full fixed point.
    """
    tainted = set(seeds)
    for _ in range(passes):
        before = len(tainted)
        visitor = _TaintPass(tainted, predicate)
        for stmt in function_node.body:
            visitor.visit(stmt)
        if len(tainted) == before:
            break
    return tainted


def _buffer_chain(expr: ast.expr, buffer_attrs: Tuple[str, ...]) -> Optional[List[str]]:
    """``a.b.counters`` → parts, when the chain tail is a buffer attr."""
    parts = dotted_name(expr)
    if parts and len(parts) >= 2 and parts[-1] in buffer_attrs:
        return parts
    return None


#: Array methods that return a *view* of the receiver — an alias bound
#: through one of these still denotes the shared buffer.  Anything else
#: (fancy indexing, arithmetic, ``.copy()``, reductions) produces a new
#: array, which is private until written back.  A subscript with a
#: ``:`` in its index (``buf[:, c]``) is a view too.
_VIEW_METHODS = ("reshape", "view", "ravel", "squeeze", "transpose")


def _strip_views(expr: ast.expr) -> ast.expr:
    """Peel ``.reshape(...)`` / ``.view(...)`` / ``[:, c]`` views off a chain.

    So ``buf[:, c][rows] += v`` is a write to ``buf`` indexed by
    ``rows``.
    """
    while True:
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _VIEW_METHODS
        ):
            expr = expr.func.value
        elif is_slice_view(expr):
            expr = expr.value
        else:
            return expr


def contains_buffer_read(
    expr: ast.expr,
    buffer_attrs: Tuple[str, ...],
    local_factories: Dict[str, bool],
) -> bool:
    """True when ``expr`` reads a *shared* population buffer attribute.

    ``local_factories`` maps local variable names to True when they
    were constructed in-function (their buffers are worker-private).
    """
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr in buffer_attrs:
            parts = dotted_name(node)
            if parts is None:
                return True  # computed receiver: assume shared
            if not local_factories.get(parts[0], False):
                return True
    return False


@dataclass
class WriteRecord:
    """One subscript write (``target[index] = …`` / ``+=``)."""

    #: "buffer" — attribute-chain buffer on a non-local object, or an
    #: alias of one; "local" — buffer on a locally-constructed store
    #: (exempt); "name" — plain-name base with no buffer evidence.
    kind: str
    base: str
    guarded: bool
    line: int
    col: int
    #: Parameters whose derived names appear in the index expression
    #: (the guard may be established by the caller — an *obligation*).
    index_params: frozenset = frozenset()


class _WriteCollector(ast.NodeVisitor):
    def __init__(self) -> None:
        self.targets: List[Tuple[ast.Subscript, int, int]] = []

    def _collect(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript):
            self.targets.append((target, target.lineno, target.col_offset))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._collect(elt)
        elif isinstance(target, ast.Starred):
            self._collect(target.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._collect(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._collect(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._collect(node.target)
        self.generic_visit(node)


@dataclass
class FunctionFacts:
    """Everything FLW010/FLW011 need to know about one function body."""

    function: FunctionModel
    #: Row-guard names (params named row/rows*, locals derived from
    #: row-source calls, loop targets over guard arrays …).
    guards: Set[str] = field(default_factory=set)
    #: Locals constructed from function-local store factories.
    local_factory_vars: Dict[str, bool] = field(default_factory=dict)
    #: Names *aliasing* a shared buffer: bound from a buffer attribute
    #: chain directly, through view-preserving methods, or by a plain
    #: name copy.  Fancy indexing and arithmetic produce copies and are
    #: deliberately excluded.
    buffer_aliases: Set[str] = field(default_factory=set)
    #: Per-parameter derived-name sets (param itself included).
    param_derived: Dict[str, Set[str]] = field(default_factory=dict)
    writes: List[WriteRecord] = field(default_factory=list)

    def params_deriving(self, names: Set[str]) -> frozenset:
        return frozenset(
            param
            for param, derived in self.param_derived.items()
            if names & derived
        )

    def is_shared_expr(self, expr: ast.expr, buffer_attrs: Tuple[str, ...]) -> bool:
        """Argument-position check: does ``expr`` denote a shared buffer?"""
        expr = _strip_views(expr)
        if isinstance(expr, ast.Name):
            return expr.id in self.buffer_aliases
        return _buffer_chain(expr, buffer_attrs) is not None and not (
            (dotted_name(expr) or [""])[0] in self.local_factory_vars
        )


def compute_function_facts(
    function: FunctionModel,
    graph: CallGraph,
    config: LintConfig,
) -> FunctionFacts:
    facts = FunctionFacts(function=function)
    node = function.node

    constructor_locals = graph.constructor_locals.get(function.qualname, {})
    facts.local_factory_vars = {
        var: True
        for var, bare in constructor_locals.items()
        if bare in config.flw010_local_factories
    }

    # Row guards: params by naming contract, then propagation from
    # row-source calls and guard-derived expressions.
    seed_guards = set()
    for param in function.param_names():
        if param in config.flw010_row_names or any(
            param.startswith(prefix) for prefix in config.flw010_row_prefixes
        ):
            seed_guards.add(param)

    def _row_source(expr: ast.expr) -> bool:
        for call in ast.walk(expr):
            if isinstance(call, ast.Call):
                tail = None
                if isinstance(call.func, ast.Name):
                    tail = call.func.id
                elif isinstance(call.func, ast.Attribute):
                    tail = call.func.attr
                if tail in config.flw010_row_sources:
                    return True
        return False

    facts.guards = derive_names(node, seed_guards, predicate=_row_source)

    # Shared-buffer aliases: only view-preserving bindings count.
    facts.buffer_aliases = _collect_buffer_aliases(
        node, config.flw010_buffer_attrs, facts.local_factory_vars
    )

    # Per-param derived names (for write summaries and sink summaries).
    for param in function.positional_params():
        facts.param_derived[param] = derive_names(node, {param})

    # Subscript writes.
    collector = _WriteCollector()
    for stmt in node.body:
        collector.visit(stmt)
    for target, line, col in collector.targets:
        base_expr = _strip_views(target.value)
        index_names = names_in(target.slice)
        guarded = bool(index_names & facts.guards)
        index_params = facts.params_deriving(index_names)
        chain = _buffer_chain(base_expr, config.flw010_buffer_attrs)
        if chain is not None:
            kind = "local" if facts.local_factory_vars.get(chain[0], False) else "buffer"
            facts.writes.append(
                WriteRecord(kind, chain[0], guarded, line, col, index_params)
            )
        elif isinstance(base_expr, ast.Name):
            kind = "buffer" if base_expr.id in facts.buffer_aliases else "name"
            facts.writes.append(
                WriteRecord(kind, base_expr.id, guarded, line, col, index_params)
            )
    return facts


def _collect_buffer_aliases(
    node: ast.FunctionDef,
    buffer_attrs: Tuple[str, ...],
    local_factory_vars: Dict[str, bool],
) -> Set[str]:
    """Names bound to a shared buffer through view-preserving forms only.

    ``have = pool.have_words`` and ``counters = pop.counters.reshape(n,
    k)`` alias the buffer; ``have_i = have[rows]`` (fancy-index copy)
    and ``base = np.minimum(...)`` (new array) do not.
    """
    aliases: Set[str] = set()

    def _is_alias_expr(expr: ast.expr) -> bool:
        expr = _strip_views(expr)
        if isinstance(expr, ast.Name):
            return expr.id in aliases
        chain = _buffer_chain(expr, buffer_attrs)
        return chain is not None and not local_factory_vars.get(chain[0], False)

    class _AliasPass(ast.NodeVisitor):
        def visit_Assign(self, assign: ast.Assign) -> None:
            values: List[Tuple[List[ast.expr], ast.expr]] = [
                (assign.targets, assign.value)
            ]
            # `a, b = x, y` pairs element-wise.
            if (
                len(assign.targets) == 1
                and isinstance(assign.targets[0], (ast.Tuple, ast.List))
                and isinstance(assign.value, (ast.Tuple, ast.List))
                and len(assign.targets[0].elts) == len(assign.value.elts)
            ):
                values = [
                    ([tgt], val)
                    for tgt, val in zip(assign.targets[0].elts, assign.value.elts)
                ]
            for targets, value in values:
                if not _is_alias_expr(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
            self.generic_visit(assign)

        def visit_AnnAssign(self, assign: ast.AnnAssign) -> None:
            if (
                assign.value is not None
                and _is_alias_expr(assign.value)
                and isinstance(assign.target, ast.Name)
            ):
                aliases.add(assign.target.id)
            self.generic_visit(assign)

    for _ in range(2):
        before = len(aliases)
        visitor = _AliasPass()
        for stmt in node.body:
            visitor.visit(stmt)
        if len(aliases) == before:
            break
    return aliases


@dataclass
class FlowSummaries:
    """Interprocedural facts, keyed by function qualname."""

    facts: Dict[str, FunctionFacts] = field(default_factory=dict)
    #: qualname -> {param -> evidence chain ["qualname:line", …]}.
    unguarded_write_params: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)
    #: qualname -> {param -> evidence chain}.
    sink_params: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)
    #: qualname -> {frozenset(params) -> evidence chain}: a buffer write
    #: in (or below) the function is indexed by values derived from
    #: these params — some caller must supply guard-derived rows.
    index_obligations: Dict[str, Dict[frozenset, List[str]]] = field(
        default_factory=dict
    )
    #: qualname -> [(line, col, params, chain, callee)]: call sites
    #: where an obligation could be satisfied by neither a guard nor a
    #: caller parameter — the write's index guard bottomed out.
    obligation_failures: Dict[str, List[Tuple[int, int, frozenset, List[str], str]]] = (
        field(default_factory=dict)
    )


def build_summaries(
    project: ProjectModel, graph: CallGraph, config: LintConfig
) -> FlowSummaries:
    summaries = FlowSummaries()
    for qualname, function in project.functions.items():
        summaries.facts[qualname] = compute_function_facts(function, graph, config)
        summaries.unguarded_write_params[qualname] = {}
        summaries.sink_params[qualname] = {}
        summaries.index_obligations[qualname] = {}

    _fix_unguarded_writes(project, graph, config, summaries)
    _fix_sink_params(project, graph, config, summaries)
    _fix_index_obligations(project, graph, config, summaries)
    return summaries


_MAX_ROUNDS = 20


def _fix_unguarded_writes(
    project: ProjectModel,
    graph: CallGraph,
    config: LintConfig,
    summaries: FlowSummaries,
) -> None:
    """Fixed point for FLW010 parameter summaries."""
    for _ in range(_MAX_ROUNDS):
        changed = False
        for qualname, facts in summaries.facts.items():
            table = summaries.unguarded_write_params[qualname]
            for param, derived in facts.param_derived.items():
                if param in table:
                    continue
                chain = _param_write_chain(
                    qualname, facts, derived, graph, summaries, param
                )
                if chain is not None:
                    table[param] = chain
                    changed = True
        if not changed:
            return


def _param_write_chain(
    qualname: str,
    facts: FunctionFacts,
    derived: Set[str],
    graph: CallGraph,
    summaries: FlowSummaries,
    param: str,
) -> Optional[List[str]]:
    # Direct: an unguarded subscript write through the param (or an
    # alias of it).  Writes whose index derives from *some* parameter
    # are covered by the obligation machinery instead, and writes that
    # alias a buffer chain are claimed by the direct buffer check.
    for write in facts.writes:
        if (
            write.kind == "name"
            and not write.guarded
            and not write.index_params
            and write.base in derived
        ):
            return [f"{qualname}:{write.line}"]
    # Transitive: the param is handed to a callee parameter already
    # known to reach an unguarded write.
    for site in graph.sites.get(qualname, []):
        for callee_qual in site.callees:
            callee = summaries.facts.get(callee_qual)
            if callee is None:
                continue
            callee_table = summaries.unguarded_write_params.get(callee_qual, {})
            if not callee_table:
                continue
            for arg, bound in site.bind_args(callee.function):
                if bound in callee_table and (names_in(arg) & derived):
                    return [f"{qualname}:{site.line}"] + callee_table[bound]
    return None


def _fix_sink_params(
    project: ProjectModel,
    graph: CallGraph,
    config: LintConfig,
    summaries: FlowSummaries,
) -> None:
    """Fixed point for FLW011 parameter summaries."""
    sinks = set(config.flw011_protocol_sinks)
    for _ in range(_MAX_ROUNDS):
        changed = False
        for qualname, facts in summaries.facts.items():
            table = summaries.sink_params[qualname]
            for param, derived in facts.param_derived.items():
                if param in table:
                    continue
                chain = _param_sink_chain(qualname, derived, graph, summaries, sinks)
                if chain is not None:
                    table[param] = chain
                    changed = True
        if not changed:
            return


def _fix_index_obligations(
    project: ProjectModel,
    graph: CallGraph,
    config: LintConfig,
    summaries: FlowSummaries,
) -> None:
    """Fixed point for FLW010 index-guard obligations.

    Seed: a buffer write whose index derives only from parameters.  A
    call site discharges an obligation when any obligated parameter
    receives a guard-derived argument; re-raises it against the caller's
    own parameters when the argument is parameter-derived; and *fails*
    (recorded for the rule to report) when the argument is neither.
    """
    for qualname, facts in summaries.facts.items():
        table = summaries.index_obligations[qualname]
        for write in facts.writes:
            if write.kind == "buffer" and not write.guarded and write.index_params:
                if write.index_params not in table:
                    table[write.index_params] = [f"{qualname}:{write.line}"]

    for _ in range(_MAX_ROUNDS):
        changed = False
        for qualname, facts in summaries.facts.items():
            for site in graph.sites.get(qualname, []):
                for callee_qual in site.callees:
                    callee_facts = summaries.facts.get(callee_qual)
                    if callee_facts is None:
                        continue
                    callee_table = summaries.index_obligations.get(callee_qual, {})
                    if not callee_table:
                        continue
                    bound: Dict[str, ast.expr] = {}
                    for arg, param in site.bind_args(callee_facts.function):
                        if param is not None:
                            bound[param] = arg
                    for params, chain in list(callee_table.items()):
                        args = [bound.get(param) for param in params]
                        present = [arg for arg in args if arg is not None]
                        if not present:
                            continue  # defaulted params: nothing to judge
                        if any(names_in(arg) & facts.guards for arg in present):
                            continue  # discharged by a caller-side guard
                        caller_params: Set[str] = set()
                        for arg in present:
                            caller_params |= facts.params_deriving(names_in(arg))
                        new_chain = [f"{qualname}:{site.line}"] + chain
                        if caller_params:
                            key = frozenset(caller_params)
                            table = summaries.index_obligations[qualname]
                            if key not in table:
                                table[key] = new_chain
                                changed = True
                        else:
                            failures = summaries.obligation_failures.setdefault(
                                qualname, []
                            )
                            record = (
                                site.line,
                                site.node.col_offset,
                                params,
                                new_chain,
                                callee_qual,
                            )
                            if record not in failures:
                                failures.append(record)
        if not changed:
            return


def _param_sink_chain(
    qualname: str,
    derived: Set[str],
    graph: CallGraph,
    summaries: FlowSummaries,
    sinks: Set[str],
) -> Optional[List[str]]:
    for site in graph.sites.get(qualname, []):
        site_args = list(site.node.args) + [kw.value for kw in site.node.keywords]
        if site.name in sinks:
            for arg in site_args:
                if names_in(arg) & derived:
                    return [f"{qualname}:{site.line}"]
            continue
        for callee_qual in site.callees:
            callee = summaries.facts.get(callee_qual)
            if callee is None:
                continue
            callee_table = summaries.sink_params.get(callee_qual, {})
            if not callee_table:
                continue
            for arg, bound in site.bind_args(callee.function):
                if bound in callee_table and (names_in(arg) & derived):
                    return [f"{qualname}:{site.line}"] + callee_table[bound]
    return None
