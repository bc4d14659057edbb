"""Resource-discipline rules: API006 and PKL008.

* **API006** — counter columns are mutated only through
  ``ServiceCounters.add()`` / ``CounterColumnView`` setters (which
  carry the overflow and negative-delta guards) or the audited
  batched-phase scatter-add sites; raw subscript writes anywhere else
  bypass the guards.
* **PKL008** — dataclasses shipped across process boundaries as pool
  task specs must stay picklable: no lambdas, no locally-defined
  functions, no RNG objects or open handles in their fields.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional, Set

from .findings import Finding
from .rules import FileContext, LintConfig, Rule, dotted_name, register

__all__ = [
    "CounterMutationRule",
    "TaskSpecPicklabilityRule",
]


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


@register
class CounterMutationRule(Rule):
    code = "API006"
    title = "counter columns mutated only through the guarded APIs"
    rationale = (
        "raw writes into the counters matrix bypass the int64 overflow "
        "and negative-delta guards in ServiceCounters/CounterColumnView"
    )
    include = ("src/repro/*",)
    exclude = (
        "src/repro/bargossip/population.py",
        "src/repro/bargossip/node.py",
    )

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        rule = self
        findings: List[Finding] = []
        allowed = frozenset(config.api006_allowed_functions)

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.stack: List[str] = []
                # Per-scope names bound to a counters matrix.
                self.bound: List[Set[str]] = [set()]

            def _enter(self, node) -> None:
                self.stack.append(node.name)
                self.bound.append(set())
                self.generic_visit(node)
                self.bound.pop()
                self.stack.pop()

            visit_FunctionDef = _enter
            visit_AsyncFunctionDef = _enter

            def _is_counters_expr(self, node: ast.AST) -> bool:
                if isinstance(node, ast.Attribute) and node.attr == "counters":
                    return True
                if isinstance(node, ast.Name):
                    return node.id in self.bound[-1]
                if isinstance(node, ast.Call) and _call_name(node) == "counters_view":
                    return True
                return False

            def _track(self, node: ast.Assign) -> None:
                is_counters = self._is_counters_expr(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if is_counters:
                            self.bound[-1].add(target.id)
                        else:
                            self.bound[-1].discard(target.id)

            def _check_target(self, target: ast.AST, node: ast.AST) -> None:
                for sub in ast.walk(target):
                    if not isinstance(sub, ast.Subscript):
                        continue
                    if not self._is_counters_expr(sub.value):
                        continue
                    if any(name in allowed for name in self.stack):
                        continue
                    findings.append(
                        rule.finding(
                            ctx,
                            config,
                            node,
                            "raw write into a counters matrix — mutate through "
                            "ServiceCounters.add()/CounterColumnView setters, "
                            "or Population.add_counter_deltas() for batches",
                        )
                    )

            def visit_Assign(self, node: ast.Assign) -> None:
                for target in node.targets:
                    self._check_target(target, node)
                self._track(node)
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                self._check_target(node.target, node)
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        return findings


#: Type tokens that make a task-spec field unpicklable (or picklable
#: only by dragging process-local state across the boundary).
_FORBIDDEN_ANNOTATION = re.compile(
    r"\b(Callable|Generator|RngStreams|Random|RandomState|TextIO|BinaryIO)\b|\bIO\["
)


@register
class TaskSpecPicklabilityRule(Rule):
    code = "PKL008"
    title = "pool task specs stay picklable"
    rationale = (
        "task specs cross process boundaries; lambdas, local functions, "
        "RNG objects and open handles fail or misbehave under pickle"
    )
    include = ("src/repro/*",)

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_definitions(ctx, config))
        findings.extend(self._check_constructions(ctx, config))
        return findings

    def _is_spec_name(self, name: str, config: LintConfig) -> bool:
        return name in config.pkl008_spec_classes or name.endswith(
            tuple(config.pkl008_spec_suffixes)
        )

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            chain = dotted_name(target)
            if chain and chain[-1] == "dataclass":
                return True
        return False

    def _check_definitions(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_spec_name(node.name, config):
                continue
            if not self._is_dataclass(node):
                continue
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                yield from self._check_field(ctx, config, node, statement)

    def _check_field(
        self,
        ctx: FileContext,
        config: LintConfig,
        owner: ast.ClassDef,
        statement: ast.AnnAssign,
    ) -> Iterable[Finding]:
        field_name = (
            statement.target.id if isinstance(statement.target, ast.Name) else "?"
        )
        try:
            annotation_text = ast.unparse(statement.annotation)
        except Exception:  # pragma: no cover - unparse of exotic nodes
            annotation_text = ""
        match = _FORBIDDEN_ANNOTATION.search(annotation_text)
        if match:
            yield self.finding(
                ctx,
                config,
                statement,
                f"task spec {owner.name}.{field_name} is annotated "
                f"{annotation_text!r} — {match.group(0)} fields do not "
                "survive the process boundary; ship plain data and "
                "reconstruct in the worker",
            )
        if isinstance(statement.value, ast.Lambda):
            yield self.finding(
                ctx,
                config,
                statement,
                f"task spec {owner.name}.{field_name} defaults to a lambda — "
                "lambdas cannot be pickled; use a module-level function",
            )

    def _check_constructions(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterable[Finding]:
        rule = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.local_functions: List[Set[str]] = []
                self.results: List[Finding] = []

            def _enter(self, node) -> None:
                if self.local_functions:
                    # A def nested inside another function is local.
                    self.local_functions[-1].add(node.name)
                self.local_functions.append(set())
                self.generic_visit(node)
                self.local_functions.pop()

            visit_FunctionDef = _enter
            visit_AsyncFunctionDef = _enter

            def _is_local_function(self, name: str) -> bool:
                return any(name in scope for scope in self.local_functions)

            def visit_Call(self, node: ast.Call) -> None:
                name = _call_name(node)
                if name is not None and rule._is_spec_name(name, config):
                    values = list(node.args) + [kw.value for kw in node.keywords]
                    for value in values:
                        if isinstance(value, ast.Lambda):
                            self.results.append(
                                rule.finding(
                                    ctx,
                                    config,
                                    value,
                                    f"lambda passed into task spec {name}() — "
                                    "lambdas cannot be pickled; use a "
                                    "module-level function",
                                )
                            )
                        elif isinstance(value, ast.Name) and self._is_local_function(
                            value.id
                        ):
                            self.results.append(
                                rule.finding(
                                    ctx,
                                    config,
                                    value,
                                    f"locally-defined function {value.id!r} "
                                    f"passed into task spec {name}() — local "
                                    "functions cannot be pickled; move it to "
                                    "module level",
                                )
                            )
                self.generic_visit(node)

        visitor = Visitor()
        visitor.visit(ctx.tree)
        return visitor.results
