"""Resource-discipline rule API006.

Counter columns are mutated only through ``ServiceCounters.add()`` /
``CounterColumnView`` setters (which carry the overflow and
negative-delta guards) or the audited batched-phase scatter-add sites;
raw subscript writes anywhere else bypass the guards.  Task-spec
picklability is checked interprocedurally by FLW013
(:mod:`repro.analysis.flow.rules`).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from .findings import Finding
from .rules import FileContext, LintConfig, Rule, is_slice_view, register

__all__ = ["CounterMutationRule"]


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
                if is_slice_view(node):
                    # ``counters[:, c]`` is a view: one column of the matrix.
                    return self._is_counters_expr(node.value)
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
                    return

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

