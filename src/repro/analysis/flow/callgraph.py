"""Module-level call graph with alias-aware resolution.

Resolution strategy, in decreasing precision:

1. **Scope**: a plain-name call resolves through the module's local
   definitions and (relative-import-aware) import aliases.  A call on a
   resolved class name is a constructor: the edge points at
   ``__init__`` and the assigned variable is typed.
2. **Receiver types**: ``x = Engine(...)`` then ``x.run(...)`` resolves
   through the recorded constructor type; ``self.method(...)`` through
   the enclosing class; ``self._engine.run(...)`` through attribute
   types collected from ``self._engine = Engine(...)`` assignments
   anywhere in the class.
3. **Name fallback** (attribute calls only): an unresolvable
   ``obj.run_exchanges(...)`` edges to *every* project function named
   ``run_exchanges`` — a class-hierarchy-analysis-style
   over-approximation that keeps reachability sound when the receiver
   type is opaque.

Plain-name calls never fall back: an unimported bare name is almost
always a builtin, and edging ``len`` to a project helper named ``len``
would poison the graph.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .project import FunctionModel, ModuleModel, ProjectModel

__all__ = ["CallGraph", "CallSite", "build_call_graph"]


@dataclass
class CallSite:
    """One call expression inside a project function."""

    caller: str
    node: ast.Call
    #: Bare callee name: ``Name.id`` or the ``Attribute`` tail.
    name: str
    #: Resolved project callee qualnames (empty if external).
    callees: List[str] = field(default_factory=list)
    #: True when resolution step 3 (bare-name fallback) produced the
    #: candidates — treated as reachability edges, not proof of identity.
    fallback: bool = False
    #: True for ``obj.m(...)``-shaped calls (positional args shift by
    #: one against the callee's ``self``).
    is_method_call: bool = False
    #: True when the call constructs a resolved project class.
    is_constructor: bool = False

    @property
    def line(self) -> int:
        return self.node.lineno

    def bind_args(
        self, callee: FunctionModel
    ) -> List[Tuple[ast.expr, Optional[str]]]:
        """Pair each argument expression with the callee parameter it
        binds (best effort; ``*args`` spills map to ``None``)."""
        params = (
            callee.positional_params()
            if (self.is_method_call or self.is_constructor)
            else callee.param_names()
        )
        bound: List[Tuple[ast.expr, Optional[str]]] = []
        index = 0
        for arg in self.node.args:
            if isinstance(arg, ast.Starred):
                bound.append((arg.value, None))
                continue
            bound.append((arg, params[index] if index < len(params) else None))
            index += 1
        keyword_params = set(params) | {a.arg for a in callee.node.args.kwonlyargs}
        for keyword in self.node.keywords:
            if keyword.arg is None:
                bound.append((keyword.value, None))
            else:
                bound.append(
                    (keyword.value, keyword.arg if keyword.arg in keyword_params else None)
                )
        return bound


def _receiver_parts(node: ast.expr) -> Optional[List[str]]:
    """``self._engine`` → ``["self", "_engine"]``; None if not a chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class _FunctionScanner(ast.NodeVisitor):
    """Collect call sites and constructor-typed locals for one function."""

    def __init__(
        self,
        graph: "CallGraph",
        project: ProjectModel,
        module: ModuleModel,
        function: FunctionModel,
    ) -> None:
        self.graph = graph
        self.project = project
        self.module = module
        self.function = function
        #: local var -> constructed class qualname.
        self.local_types: Dict[str, str] = {}
        #: local var -> bare constructor name (even for unresolved
        #: classes) — FLW010's local-factory check keys off this.
        self.constructor_names: Dict[str, str] = {}
        self.sites: List[CallSite] = []

    # Nested defs are scanned as part of the enclosing function: their
    # calls count toward the outer function's behavior.

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_constructor(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_constructor([node.target], node.value)
        self.generic_visit(node)

    def _record_constructor(self, targets: List[ast.expr], value: ast.expr) -> None:
        if not isinstance(value, ast.Call):
            return
        bare = _callee_bare_name(value.func)
        if bare is None or not bare[:1].isupper():
            return
        resolved = self._resolve_class(value.func)
        for target in targets:
            if isinstance(target, ast.Name):
                self.constructor_names[target.id] = bare
                if resolved is not None:
                    self.local_types[target.id] = resolved

    def _resolve_class(self, func: ast.expr) -> Optional[str]:
        parts = _receiver_parts(func)
        if parts is None:
            return None
        qualname = self.project.resolve_qualname(self.module, ".".join(parts))
        if qualname is not None and qualname in self.project.classes:
            return qualname
        model = self.project.unique_class(parts[-1])
        return model.qualname if model is not None else None

    def visit_Call(self, node: ast.Call) -> None:
        site = self._resolve_call(node)
        if site is not None:
            self.sites.append(site)
        self.generic_visit(node)

    def _resolve_call(self, node: ast.Call) -> Optional[CallSite]:
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(node, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(node, func)
        return None

    def _resolve_name_call(self, node: ast.Call, name: str) -> CallSite:
        site = CallSite(caller=self.function.qualname, node=node, name=name)
        qualname = self.project.resolve_qualname(self.module, name)
        if qualname in self.project.functions:
            site.callees = [qualname]
        elif qualname in self.project.classes:
            site.is_constructor = True
            init = self.project.classes[qualname].methods.get("__init__")
            if init is not None:
                site.callees = [init.qualname]
        return site

    def _resolve_attribute_call(self, node: ast.Call, func: ast.Attribute) -> CallSite:
        name = func.attr
        site = CallSite(
            caller=self.function.qualname,
            node=node,
            name=name,
            is_method_call=True,
        )
        receiver_class = self._receiver_class(func.value)
        if receiver_class is not None:
            method = self.project.classes[receiver_class].methods.get(name)
            if method is not None:
                site.callees = [method.qualname]
                return site
        # Dotted module access: `updates.word_popcounts(...)`.
        parts = _receiver_parts(func)
        if parts is not None:
            qualname = self.project.resolve_qualname(self.module, ".".join(parts))
            if qualname in self.project.functions:
                site.is_method_call = False
                site.callees = [qualname]
                return site
            if qualname in self.project.classes:
                site.is_method_call = False
                site.is_constructor = True
                init = self.project.classes[qualname].methods.get("__init__")
                site.callees = [init.qualname] if init is not None else []
                return site
        # Name fallback: every project function with this bare name.
        candidates = self.project.functions_by_name.get(name, [])
        if candidates:
            site.callees = list(candidates)
            site.fallback = True
        return site

    def _receiver_class(self, receiver: ast.expr) -> Optional[str]:
        parts = _receiver_parts(receiver)
        if parts is None:
            return None
        if len(parts) == 1:
            name = parts[0]
            if name == "self" and self.function.class_name is not None:
                return f"{self.function.module}.{self.function.class_name}"
            return self.local_types.get(name)
        if parts[0] == "self" and len(parts) == 2 and self.function.class_name:
            class_qual = f"{self.function.module}.{self.function.class_name}"
            return self.graph.attr_types.get(class_qual, {}).get(parts[1])
        return None


def _callee_bare_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class CallGraph:
    """Call sites per function, plus reachability with parent chains."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        #: caller qualname -> call sites.
        self.sites: Dict[str, List[CallSite]] = {}
        #: class qualname -> {attr name -> class qualname} from
        #: ``self.attr = Cls(...)`` assignments.
        self.attr_types: Dict[str, Dict[str, str]] = {}
        #: function qualname -> {local var -> bare constructor name}.
        self.constructor_locals: Dict[str, Dict[str, str]] = {}
        #: function qualname -> {local var -> constructed class qualname}.
        self.local_types: Dict[str, Dict[str, str]] = {}

    def callees_of(self, qualname: str) -> List[str]:
        seen = []
        for site in self.sites.get(qualname, []):
            for callee in site.callees:
                if callee not in seen:
                    seen.append(callee)
        return seen

    def reachable(
        self,
        root_names: Tuple[str, ...],
        *,
        fallback_edges: bool = True,
    ) -> Dict[str, List[str]]:
        """BFS from every function whose bare name is in ``root_names``.

        Returns ``{qualname: chain}`` where ``chain`` is the qualname
        path from a root to the function (roots map to ``[root]``).

        ``fallback_edges=False`` drops edges produced by bare-name
        fallback resolution (``dict.get`` resolving to every project
        ``get``): rules whose invariant is strict enough that one
        spurious edge drowns the signal trade a little recall for it.
        """
        chains: Dict[str, List[str]] = {}
        queue = deque()
        for name in root_names:
            for model in self.project.functions_named(name):
                if model.qualname not in chains:
                    chains[model.qualname] = [model.qualname]
                    queue.append(model.qualname)
        while queue:
            current = queue.popleft()
            for site in self.sites.get(current, []):
                if site.fallback and not fallback_edges:
                    continue
                for callee in site.callees:
                    if callee not in chains:
                        chains[callee] = chains[current] + [callee]
                        queue.append(callee)
        return chains


def build_call_graph(project: ProjectModel) -> CallGraph:
    graph = CallGraph(project)
    _collect_attr_types(project, graph)
    for module in project.modules.values():
        for function in list(module.functions.values()):
            _scan_function(graph, project, module, function)
        for class_model in module.classes.values():
            for method in class_model.methods.values():
                _scan_function(graph, project, module, method)
    return graph


def _scan_function(
    graph: CallGraph,
    project: ProjectModel,
    module: ModuleModel,
    function: FunctionModel,
) -> None:
    scanner = _FunctionScanner(graph, project, module, function)
    for stmt in function.node.body:
        scanner.visit(stmt)
    graph.sites[function.qualname] = scanner.sites
    graph.constructor_locals[function.qualname] = scanner.constructor_names
    graph.local_types[function.qualname] = scanner.local_types


def _collect_attr_types(project: ProjectModel, graph: CallGraph) -> None:
    """``self.attr = Cls(...)`` anywhere in a class types the attribute."""
    for class_model in project.classes.values():
        module = project.modules.get(class_model.module)
        if module is None:
            continue
        types: Dict[str, str] = {}
        for method in class_model.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                parts = _receiver_parts(node.value.func)
                if parts is None:
                    continue
                qualname = project.resolve_qualname(module, ".".join(parts))
                if qualname is None or qualname not in project.classes:
                    unique = project.unique_class(parts[-1])
                    qualname = unique.qualname if unique is not None else None
                if qualname is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        types[target.attr] = qualname
        if types:
            graph.attr_types[class_model.qualname] = types
