"""Interprocedural flow rules FLW010, FLW011, FLW013 and FLW014.

Each rule sees the whole :class:`FlowContext` — project model, call
graph, and interprocedural summaries — instead of one file, so a
violation three calls away from the invariant's anchor point is still
caught.  Findings carry a ``trace`` (qualname call chain) as evidence.

To write a new flow rule: subclass :class:`FlowRule`, give it a stable
``FLWxxx`` code, implement ``check(ctx)`` yielding findings built with
``self.finding(...)``, and decorate with :func:`register_flow`.  Keep
the rule *sound where it claims soundness*: prefer missing a finding
(document the approximation) over flagging correct code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from ..findings import Finding
from ..rules import LintConfig, dotted_name
from .callgraph import CallGraph, build_call_graph
from .project import ClassModel, DataclassField, ModuleModel, ProjectModel
from .summaries import (
    FlowSummaries,
    build_summaries,
    derive_names,
    names_in,
)

__all__ = [
    "FlowContext",
    "FlowRule",
    "all_flow_rules",
    "flow_rule_codes",
    "register_flow",
    "run_flow",
]

#: Annotation tokens that kill pickling of a pool task spec.
_FORBIDDEN_ANNOTATION = re.compile(
    r"\b(Callable|Generator|RngStreams|Random|RandomState|TextIO|BinaryIO)\b|\bIO\["
)


@dataclass
class FlowContext:
    """Whole-program inputs shared by every flow rule."""

    project: ProjectModel
    graph: CallGraph
    summaries: FlowSummaries
    config: LintConfig


class FlowRule:
    """Base class for whole-program rules."""

    code: str = ""
    title: str = ""
    rationale: str = ""
    severity: str = "error"
    include: Tuple[str, ...] = ("src/repro/*",)

    def check(self, ctx: FlowContext) -> Iterable[Finding]:
        raise NotImplementedError

    def anchors_in_scope(self, rel_path: str) -> bool:
        return any(fnmatch(rel_path, pattern) for pattern in self.include)

    def finding(
        self,
        ctx: FlowContext,
        module: ModuleModel,
        line: int,
        col: int,
        message: str,
        trace: Optional[Sequence[str]] = None,
    ) -> Finding:
        return Finding(
            rule=self.code,
            path=module.rel_path,
            line=line,
            col=col,
            message=message,
            severity=ctx.config.severity_overrides.get(self.code, self.severity),
            snippet=module.snippet(line),
            trace=list(trace or []),
        )


_FLOW_REGISTRY: Dict[str, Type[FlowRule]] = {}


def register_flow(rule_class: Type[FlowRule]) -> Type[FlowRule]:
    code = rule_class.code
    if not code:
        raise ValueError(f"flow rule {rule_class.__name__} has no code")
    if code in _FLOW_REGISTRY:
        raise ValueError(f"duplicate flow rule code {code}")
    _FLOW_REGISTRY[code] = rule_class
    return rule_class


def all_flow_rules() -> List[FlowRule]:
    return [_FLOW_REGISTRY[code]() for code in sorted(_FLOW_REGISTRY)]


def flow_rule_codes() -> List[str]:
    return sorted(_FLOW_REGISTRY)


def run_flow(sources: Dict[str, str], config: Optional[LintConfig] = None) -> List[Finding]:
    """Run every enabled flow rule over ``{rel_path: source}``.

    Only files matching ``config.flow_project_patterns`` enter the
    project model, and none is built when no flow rule is enabled.
    Inline suppressions are applied by the runner.
    """
    config = config or LintConfig()
    rules = [rule for rule in all_flow_rules() if config.is_enabled(rule.code)]
    if not rules:
        return []
    scoped = {
        rel_path: source
        for rel_path, source in sources.items()
        if any(fnmatch(rel_path, pattern) for pattern in config.flow_project_patterns)
    }
    project = ProjectModel.build(scoped)
    graph = build_call_graph(project)
    summaries = build_summaries(project, graph, config)
    ctx = FlowContext(project=project, graph=graph, summaries=summaries, config=config)

    findings: List[Finding] = []
    seen: Set[Tuple[str, str, int, int, str]] = set()
    for rule in rules:
        for finding in rule.check(ctx):
            key = (finding.rule, finding.path, finding.line, finding.col, finding.message)
            if key in seen:
                continue
            seen.add(key)
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def _call_args(node: ast.Call) -> List[ast.expr]:
    args: List[ast.expr] = []
    for arg in node.args:
        args.append(arg.value if isinstance(arg, ast.Starred) else arg)
    args.extend(keyword.value for keyword in node.keywords)
    return args


# ----------------------------------------------------------------------
# FLW010 — batched-write disjointness
# ----------------------------------------------------------------------


@register_flow
class DisjointWriteRule(FlowRule):
    code = "FLW010"
    title = "unguarded write to a population buffer in batched-sweep code"
    rationale = (
        "The batched sweeps scatter-add whole phases into one Population "
        "counters matrix / WordPopulationStore buffer; every write "
        "reachable from a sweep entry point must be indexed by the "
        "phase's row arrays (or an equivalent cell-disjoint selection), "
        "or two pairs of one sweep can collide on the same rows."
    )

    def check(self, ctx: FlowContext) -> Iterable[Finding]:
        config = ctx.config
        reach = ctx.graph.reachable(config.flw010_roots)
        exempt = set(config.flw010_exempt_modules)
        for qualname in sorted(reach):
            facts = ctx.summaries.facts.get(qualname)
            if facts is None:
                continue
            function = facts.function
            if function.rel_path in exempt or not self.anchors_in_scope(function.rel_path):
                continue
            module = ctx.project.modules.get(function.module)
            if module is None:
                continue
            chain = reach[qualname]
            yield from self._direct_writes(ctx, module, facts, chain)
            yield from self._failed_obligations(ctx, module, facts, chain)
            yield from self._escaping_calls(ctx, module, facts, chain)

    def _direct_writes(self, ctx, module, facts, chain):
        for write in facts.writes:
            if write.kind != "buffer" or write.guarded:
                continue
            if write.index_params:
                # Guard may arrive through a caller: the obligation
                # machinery judges every call site instead.
                continue
            yield self.finding(
                ctx,
                module,
                write.line,
                write.col,
                (
                    f"write to shared population buffer '{write.base}' is not "
                    "guarded by row arrays — pairs of one sweep can collide "
                    "on the written rows"
                ),
                trace=chain,
            )

    def _failed_obligations(self, ctx, module, facts, chain):
        failures = ctx.summaries.obligation_failures.get(facts.function.qualname, [])
        for line, col, params, evidence, callee_qual in failures:
            yield self.finding(
                ctx,
                module,
                line,
                col,
                (
                    f"rows passed to '{callee_qual}' "
                    f"({', '.join(sorted(params))}) are neither row "
                    "arrays nor derived from this function's parameters — the "
                    f"buffer write below is unguarded ({' -> '.join(evidence)})"
                ),
                trace=list(chain) + [callee_qual],
            )

    def _escaping_calls(self, ctx, module, facts, chain):
        config = ctx.config
        for site in ctx.graph.sites.get(facts.function.qualname, []):
            for callee_qual in site.callees:
                callee_facts = ctx.summaries.facts.get(callee_qual)
                if callee_facts is None:
                    continue
                table = ctx.summaries.unguarded_write_params.get(callee_qual, {})
                if not table:
                    continue
                for arg, bound in site.bind_args(callee_facts.function):
                    if bound is None or bound not in table:
                        continue
                    if facts.is_shared_expr(arg, config.flw010_buffer_attrs):
                        evidence = " -> ".join(table[bound])
                        yield self.finding(
                            ctx,
                            module,
                            site.line,
                            site.node.col_offset,
                            (
                                f"shared population buffer escapes into parameter "
                                f"'{bound}' of '{callee_qual}', which writes it "
                                f"without a row guard ({evidence})"
                            ),
                            trace=list(chain) + [callee_qual],
                        )


# ----------------------------------------------------------------------
# FLW011 — RNG-stream discipline
# ----------------------------------------------------------------------


class _StreamReadVisitor(ast.NodeVisitor):
    """Every load of a schedule stream, with its enclosing scopes."""

    def __init__(self, stream_names: Set[str], skip: Set[ast.AST]) -> None:
        self.stream_names = stream_names
        #: Functions whose attribute reads another rule reports.
        self.skip = skip
        self.scopes: List[ast.AST] = []
        self.reads: List[Tuple[ast.AST, str, List[ast.AST]]] = []

    def _enter(self, node: ast.AST) -> None:
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _enter
    visit_AsyncFunctionDef = _enter
    visit_ClassDef = _enter

    def _load(self, node: ast.AST, name: str, context: ast.expr_context) -> None:
        # Wiring a stream up (Store) is fine anywhere; only reads count.
        if name in self.stream_names and isinstance(context, ast.Load):
            self.reads.append((node, name, list(self.scopes)))

    def visit_Name(self, node: ast.Name) -> None:
        self._load(node, node.id, node.ctx)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not any(scope in self.skip for scope in self.scopes):
            self._load(node, node.attr, node.ctx)
        self.generic_visit(node)


@register_flow
class RngStreamTaintRule(FlowRule):
    code = "FLW011"
    title = "network/churn RNG stream used outside event-schedule code"
    rationale = (
        "The schedule streams (_net_rng/_churn_rng) exist so latency "
        "and churn sampling cannot perturb protocol randomness; a read "
        "of them in a protocol phase, or a value derived from them "
        "entering a protocol-draw call site, couples the two streams "
        "and breaks rounds-vs-event and cross-backend determinism."
    )
    #: The event engine's own modules, which may read the streams anywhere.
    exempt_modules = (
        "src/repro/bargossip/events.py",
        "src/repro/bargossip/network.py",
    )

    def check(self, ctx: FlowContext) -> Iterable[Finding]:
        yield from self._scope_reads(ctx)
        yield from self._taint(ctx)

    def _scope_reads(self, ctx: FlowContext) -> Iterable[Finding]:
        """Stream reads outside the event-schedule scopes, module scope
        included; the event engine's own modules are exempt."""
        config = ctx.config
        streams = set(config.flw011_stream_names)
        allowed = set(config.flw011_allowed_functions)
        prefixes = tuple(config.flw011_allowed_prefixes)
        # FLW014 already reports every stream attribute in the retry
        # cone; one defect gets one finding.
        skip: Set[ast.AST] = set()
        if config.is_enabled("FLW014"):
            reach = ctx.graph.reachable(
                tuple(config.flw014_retry_roots), fallback_edges=False
            )
            skip = {
                ctx.project.functions[qualname].node
                for qualname in reach
                if qualname in ctx.project.functions
            }
        for module in sorted(ctx.project.modules.values(), key=lambda m: m.rel_path):
            if module.rel_path in self.exempt_modules or not self.anchors_in_scope(
                module.rel_path
            ):
                continue
            visitor = _StreamReadVisitor(streams, skip)
            visitor.visit(module.tree)
            for node, name, scopes in visitor.reads:
                functions = [
                    scope.name for scope in scopes if not isinstance(scope, ast.ClassDef)
                ]
                if any(
                    function in allowed or function.startswith(prefixes)
                    for function in functions
                ):
                    continue
                where = functions[-1] if functions else "module scope"
                yield self.finding(
                    ctx,
                    module,
                    node.lineno,
                    node.col_offset,
                    (
                        f"{name} drawn in {where!r}, which is not "
                        "event-schedule code — the network/churn streams may "
                        "only be consumed by the event engine"
                    ),
                    trace=[".".join([module.name, *(scope.name for scope in scopes)])],
                )

    def _taint(self, ctx: FlowContext) -> Iterable[Finding]:
        """Stream-derived values reaching a protocol draw, and stream
        handles escaping into a pool task spec."""
        config = ctx.config
        sinks = set(config.flw011_protocol_sinks)
        stream_names = set(config.flw011_stream_names)
        handle_names = set(config.flw011_handle_names)
        spec_suffixes = tuple(config.task_spec_suffixes)

        def stream_read(expr: ast.expr) -> bool:
            return any(
                isinstance(node, ast.Attribute) and node.attr in stream_names
                for node in ast.walk(expr)
            )

        def handle_read(expr: ast.expr) -> bool:
            for node in ast.walk(expr):
                if isinstance(node, ast.Attribute) and node.attr in handle_names:
                    return True
                if isinstance(node, ast.Name) and node.id in handle_names:
                    return True
            return False

        for qualname, facts in sorted(ctx.summaries.facts.items()):
            function = facts.function
            if not self.anchors_in_scope(function.rel_path):
                continue
            module = ctx.project.modules.get(function.module)
            if module is None:
                continue
            tainted = derive_names(function.node, set(), predicate=stream_read)
            handles = derive_names(function.node, set(), predicate=handle_read)

            def arg_is(arg: ast.expr, derived: Set[str], pred) -> bool:
                return pred(arg) or bool(names_in(arg) & derived)

            for site in ctx.graph.sites.get(qualname, []):
                args = _call_args(site.node)
                if site.name in sinks:
                    for arg in args:
                        if arg_is(arg, tainted, stream_read):
                            yield self.finding(
                                ctx,
                                module,
                                site.line,
                                site.node.col_offset,
                                (
                                    f"value derived from a schedule RNG stream "
                                    f"reaches protocol draw '{site.name}' — "
                                    "network/churn randomness must never feed "
                                    "protocol decisions"
                                ),
                                trace=[qualname, site.name],
                            )
                            break
                    continue
                # Transitive: tainted value handed to a parameter that a
                # (resolved) callee eventually feeds into a sink.
                for callee_qual in site.callees:
                    callee_facts = ctx.summaries.facts.get(callee_qual)
                    if callee_facts is None:
                        continue
                    table = ctx.summaries.sink_params.get(callee_qual, {})
                    if not table:
                        continue
                    for arg, bound in site.bind_args(callee_facts.function):
                        if bound is None or bound not in table:
                            continue
                        if arg_is(arg, tainted, stream_read):
                            evidence = " -> ".join(table[bound])
                            yield self.finding(
                                ctx,
                                module,
                                site.line,
                                site.node.col_offset,
                                (
                                    f"schedule-stream-derived value passed to "
                                    f"parameter '{bound}' of '{callee_qual}' "
                                    f"reaches a protocol draw ({evidence})"
                                ),
                                trace=[qualname, callee_qual],
                            )
                # Handle escape: a stream/RngStreams handle in a task spec.
                if site.name.endswith(spec_suffixes) and site.name[:1].isupper():
                    for arg in args:
                        if arg_is(arg, handles, handle_read):
                            yield self.finding(
                                ctx,
                                module,
                                site.line,
                                site.node.col_offset,
                                (
                                    f"RNG stream handle escapes into pool task "
                                    f"spec '{site.name}' — workers must derive "
                                    "their own streams from seeds, not inherit "
                                    "parent handles"
                                ),
                                trace=[qualname, site.name],
                            )
                            break


# ----------------------------------------------------------------------
# FLW013 — transitive picklability of task specs
# ----------------------------------------------------------------------


class _SpecConstructionVisitor(ast.NodeVisitor):
    """Lambdas and locally-defined functions passed into a task-spec call."""

    def __init__(self, suffixes: Tuple[str, ...]) -> None:
        self.suffixes = suffixes
        #: Names of the enclosing classes and functions.
        self.scopes: List[str] = []
        #: Functions defined inside each enclosing function.
        self.local_functions: List[Set[str]] = []
        #: ``(argument, spec name, what, enclosing scopes)`` per hit.
        self.hits: List[Tuple[ast.expr, str, str, List[str]]] = []

    def _enter_function(self, node: ast.AST) -> None:
        if self.local_functions:
            self.local_functions[-1].add(node.name)
        self.scopes.append(node.name)
        self.local_functions.append(set())
        self.generic_visit(node)
        self.local_functions.pop()
        self.scopes.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name.endswith(self.suffixes):
            for value in _call_args(node):
                if isinstance(value, ast.Lambda):
                    what = "lambda"
                elif isinstance(value, ast.Name) and any(
                    value.id in scope for scope in self.local_functions
                ):
                    what = f"locally-defined function {value.id!r}"
                else:
                    continue
                self.hits.append((value, name, what, list(self.scopes)))
        self.generic_visit(node)


@register_flow
class TransitivePicklabilityRule(FlowRule):
    code = "FLW013"
    title = "pool task spec holds or receives an unpicklable value"
    rationale = (
        "Pool task specs cross the process boundary with pickle; a "
        "Callable, generator, RNG object or open handle in a spec field "
        "(directly or dataclasses deep), a lambda default, or a lambda or "
        "local function handed to a spec constructor fails at "
        "submission time."
    )

    def check(self, ctx: FlowContext) -> Iterable[Finding]:
        suffixes = tuple(ctx.config.task_spec_suffixes)
        for spec in ctx.project.spec_classes(suffixes):
            if not self.anchors_in_scope(spec.rel_path):
                continue
            module = ctx.project.modules[spec.module]
            for spec_field in spec.fields:
                yield from self._chase_field(ctx, module, spec, spec_field)
        for module in sorted(ctx.project.modules.values(), key=lambda m: m.rel_path):
            if self.anchors_in_scope(module.rel_path):
                yield from self._constructions(ctx, module, suffixes)

    def _chase_field(
        self,
        ctx: FlowContext,
        root_module: ModuleModel,
        spec: ClassModel,
        root_field: DataclassField,
    ) -> Iterable[Finding]:
        visited: Set[str] = {spec.qualname}
        # Depth 0 is the spec's own field; each nested dataclass is
        # expanded once per root field, which also ends cycles.
        stack: List[Tuple[ModuleModel, ClassModel, DataclassField, List[str]]] = [
            (root_module, spec, root_field, [spec.name])
        ]
        while stack:
            module, model, item, path = stack.pop()
            problems = []
            rendered = _render_annotation(item.annotation)
            if _FORBIDDEN_ANNOTATION.search(rendered):
                problems.append(f"unpicklable annotation '{rendered}'")
            if isinstance(item.default, ast.Lambda):
                problems.append("a lambda default")
            for problem in problems:
                yield self.finding(
                    ctx,
                    root_module,
                    root_field.line,
                    root_field.col,
                    (
                        f"field '{root_field.name}' of task spec '{spec.name}' "
                        f"reaches {problem} at {model.name}.{item.name} "
                        f"(via {' -> '.join(path)}) — ship plain data and "
                        "reconstruct in the worker"
                    ),
                    trace=path,
                )
            for nested in self._nested_dataclasses(ctx, module, item.annotation):
                if nested.qualname in visited:
                    continue
                visited.add(nested.qualname)
                nested_module = ctx.project.modules[nested.module]
                for nested_field in nested.fields:
                    stack.append(
                        (nested_module, nested, nested_field, [*path, nested.name])
                    )

    def _constructions(
        self, ctx: FlowContext, module: ModuleModel, suffixes: Tuple[str, ...]
    ) -> Iterable[Finding]:
        visitor = _SpecConstructionVisitor(suffixes)
        visitor.visit(module.tree)
        for node, spec_name, what, scopes in visitor.hits:
            yield self.finding(
                ctx,
                module,
                node.lineno,
                node.col_offset,
                (
                    f"{what} passed into task spec {spec_name}() — it cannot "
                    "be pickled; use a module-level function"
                ),
                trace=[".".join([module.name, *scopes])],
            )

    def _nested_dataclasses(
        self, ctx: FlowContext, module: ModuleModel, annotation: ast.expr
    ) -> List[ClassModel]:
        models: List[ClassModel] = []
        for name in _annotation_type_names(annotation):
            qualname = ctx.project.resolve_qualname(module, name)
            model = ctx.project.classes.get(qualname) if qualname else None
            if model is None:
                model = ctx.project.unique_class(name.rpartition(".")[2])
            if model is not None and model.is_dataclass and model not in models:
                models.append(model)
        return models


# ----------------------------------------------------------------------
# FLW014 — fault-injection discipline
# ----------------------------------------------------------------------


@register_flow
class FaultSiteDisciplineRule(FlowRule):
    code = "FLW014"
    title = "fault_point sites registered; retry machinery protocol-free"
    rationale = (
        "A fault_point with a typo'd or computed site silently never "
        "fires (the chaos suite would pin nothing); and the retry/"
        "recovery machinery must never read protocol RNG streams or "
        "call protocol draws, or a recovered run could diverge from an "
        "undisturbed one."
    )

    def check(self, ctx: FlowContext) -> Iterable[Finding]:
        yield from self._check_sites(ctx)
        yield from self._check_retry_paths(ctx)

    def _check_sites(self, ctx: FlowContext) -> Iterable[Finding]:
        """Every ``fault_point(<literal>)`` names a registered site."""
        registered = set(ctx.config.flw014_sites)
        for qualname, sites in sorted(ctx.graph.sites.items()):
            function = ctx.project.functions.get(qualname)
            if function is None or not self.anchors_in_scope(function.rel_path):
                continue
            module = ctx.project.modules.get(function.module)
            if module is None:
                continue
            for site in sites:
                if site.name != "fault_point":
                    continue
                arg = self._site_arg(site.node)
                if not (
                    isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                ):
                    yield self.finding(
                        ctx,
                        module,
                        site.line,
                        site.node.col_offset,
                        (
                            "fault_point site must be a string literal — a "
                            "computed site cannot be checked against the "
                            "registry and may silently never fire"
                        ),
                        trace=[qualname],
                    )
                elif arg.value not in registered:
                    yield self.finding(
                        ctx,
                        module,
                        site.line,
                        site.node.col_offset,
                        (
                            f"fault_point site {arg.value!r} is not registered "
                            f"(known sites: {', '.join(sorted(registered))}) — "
                            "a FaultPlan targeting it would silently never fire"
                        ),
                        trace=[qualname],
                    )

    @staticmethod
    def _site_arg(node: ast.Call) -> Optional[ast.expr]:
        if node.args:
            arg = node.args[0]
            return arg.value if isinstance(arg, ast.Starred) else arg
        for keyword in node.keywords:
            if keyword.arg == "site":
                return keyword.value
        return None

    def _check_retry_paths(self, ctx: FlowContext) -> Iterable[Finding]:
        """Nothing reachable from a retry root touches protocol RNG.

        Reuses the FLW011 taint vocabulary: protected stream attribute
        reads and protocol-draw sink calls.  The roots are the
        decision/recovery paths only (see ``flw014_retry_roots``) —
        the dispatch paths that re-*execute* protocol code on retry
        are exactly as deterministic as first execution and stay out
        of scope.
        """
        config = ctx.config
        protected = set(config.flw014_protected_streams)
        sinks = set(config.flw011_protocol_sinks)
        # Fallback edges off: `dict.get` inside the fault library must
        # not drag every project `get` method into the retry cone.
        reach = ctx.graph.reachable(
            tuple(config.flw014_retry_roots), fallback_edges=False
        )
        for qualname in sorted(reach):
            function = ctx.project.functions.get(qualname)
            if function is None or not self.anchors_in_scope(function.rel_path):
                continue
            module = ctx.project.modules.get(function.module)
            if module is None:
                continue
            chain = reach[qualname]
            for node in ast.walk(function.node):
                if isinstance(node, ast.Attribute) and node.attr in protected:
                    yield self.finding(
                        ctx,
                        module,
                        node.lineno,
                        node.col_offset,
                        (
                            f"retry/recovery code reads protected RNG stream "
                            f"'{node.attr}' — recovery must be a pure replay, "
                            "never a fresh draw"
                        ),
                        trace=chain,
                    )
            for site in ctx.graph.sites.get(qualname, []):
                if site.name in sinks:
                    yield self.finding(
                        ctx,
                        module,
                        site.line,
                        site.node.col_offset,
                        (
                            f"retry/recovery code calls protocol draw "
                            f"'{site.name}' — recovery must not re-enter the "
                            "protocol outside a full deterministic re-run"
                        ),
                        trace=chain,
                    )


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def _annotation_type_names(annotation: ast.expr) -> List[str]:
    """Candidate type names inside an annotation, forward refs included."""
    names: List[str] = []
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            parts = dotted_name(node)
            if parts:
                names.append(".".join(parts))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.extend(_IDENTIFIER.findall(node.value))
    return names


def _render_annotation(annotation: ast.expr) -> str:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value  # a forward reference, rendered unquoted
    try:
        return ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<annotation>"
