"""Determinism rules: DET001-DET003.

These encode the invariant every parity suite in this repo pins at
runtime — simulations are bit-exact across backends and schedules —
as review-time checks:

* **DET001** — no global-state randomness.  Every draw flows through
  :class:`repro.core.rng.RngStreams`; ``random.*`` and the legacy
  ``np.random.*`` module functions share hidden global state that any
  import-order change perturbs.
* **DET002** — no order-sensitive iteration over ``set`` /
  ``frozenset`` in protocol modules.  Set iteration order depends on
  insertion history and hash randomization; wrap in ``sorted(...)``.
* **DET003** — no wall-clock reads in simulator code.  The simulator
  core runs on virtual time only; wall clocks belong to the worker
  supervisor and to ``benchmarks/``.

The network/churn stream discipline is checked interprocedurally by
FLW011 (:mod:`repro.analysis.flow.rules`).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from .findings import Finding
from .rules import (
    FileContext,
    ImportTracker,
    LintConfig,
    Rule,
    register,
)

__all__ = [
    "GlobalRandomnessRule",
    "UnsortedSetIterationRule",
    "WallClockRule",
]

#: ``np.random`` attributes that do NOT touch the legacy global state.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Wall-clock callables (fully-qualified after alias resolution).
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_PROTOCOL_MODULES = (
    "src/repro/bargossip/*",
    "src/repro/core/*",
    "src/repro/coding/*",
    "src/repro/tokenmodel/*",
    "src/repro/bittorrent/*",
    "src/repro/reputation/*",
    "src/repro/scrip/*",
)


@register
class GlobalRandomnessRule(Rule):
    code = "DET001"
    title = "no global-state randomness"
    rationale = (
        "all draws must flow through core.rng.RngStreams; random.* and "
        "legacy np.random.* share hidden global state"
    )
    include = ("src/repro/*",)

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        tracker = ImportTracker.of(ctx.tree)
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                findings.extend(self._check_import(ctx, config, node))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(ctx, config, node, tracker))
        return findings

    def _check_import(
        self, ctx: FileContext, config: LintConfig, node: ast.ImportFrom
    ) -> Iterable[Finding]:
        if node.module == "random":
            for alias in node.names:
                yield self.finding(
                    ctx,
                    config,
                    node,
                    f"import of random.{alias.name} — draw from a named "
                    "core.rng.RngStreams generator instead",
                )
        elif node.module in ("numpy.random", "np.random"):
            for alias in node.names:
                if alias.name not in _NP_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx,
                        config,
                        node,
                        f"import of numpy.random.{alias.name} uses the legacy "
                        "global RandomState — draw from core.rng.RngStreams",
                    )

    def _check_call(
        self,
        ctx: FileContext,
        config: LintConfig,
        node: ast.Call,
        tracker: ImportTracker,
    ) -> Iterable[Finding]:
        resolved = tracker.resolve(node.func)
        if resolved is None:
            return
        if resolved == "random" or resolved.startswith("random."):
            yield self.finding(
                ctx,
                config,
                node,
                f"call to {resolved}() draws from the process-global stdlib "
                "RNG — draw from a named core.rng.RngStreams generator",
            )
        elif resolved.startswith("numpy.random."):
            attr = resolved.split(".")[2]
            if attr not in _NP_RANDOM_ALLOWED:
                yield self.finding(
                    ctx,
                    config,
                    node,
                    f"call to {resolved}() touches numpy's legacy global "
                    "RandomState — draw from core.rng.RngStreams",
                )


def _is_set_annotation(annotation: Optional[ast.AST]) -> bool:
    """Whether an annotation denotes a set type.

    Recognises ``set``/``frozenset``/``Set``/``FrozenSet``/
    ``AbstractSet``/``MutableSet`` heads, bare or subscripted, plain or
    attribute-qualified (``typing.Set``), including string annotations.
    """
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        name = annotation.attr
    elif isinstance(annotation, ast.Name):
        name = annotation.id
    else:
        return False
    return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")


_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


class _SetScope:
    __slots__ = ("known",)

    def __init__(self) -> None:
        self.known: Set[str] = set()


class _Det002Visitor(ast.NodeVisitor):
    """Tracks set-typed names per scope and flags ordered iteration."""

    #: Builtins whose output depends on the iteration order of their
    #: argument (``sorted``/``len``/``min``/``max``/``any``/``all`` do
    #: not, and are therefore fine to apply to a set).
    ORDER_SENSITIVE_CALLS = frozenset({"sum", "list", "tuple"})

    #: Builtins whose result does not depend on argument order; a
    #: comprehension fed straight into one of these may draw from a set
    #: (``sorted(x for x in some_set)`` is the idiomatic fix).
    ORDER_INSENSITIVE_CALLS = frozenset(
        {"sorted", "set", "frozenset", "min", "max", "any", "all", "len"}
    )

    def __init__(self, rule: "UnsortedSetIterationRule", ctx: FileContext, config: LintConfig):
        self.rule = rule
        self.ctx = ctx
        self.config = config
        self.findings: List[Finding] = []
        self.scopes: List[_SetScope] = [_SetScope()]
        self.sanitized: Set[ast.AST] = set()

    # -- scope management -------------------------------------------------

    def _enter_function(self, node) -> None:
        scope = _SetScope()
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if _is_set_annotation(arg.annotation):
                scope.known.add(arg.arg)
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scopes.append(_SetScope())
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.scopes.append(_SetScope())
        self.generic_visit(node)
        self.scopes.pop()

    # -- set-type inference ----------------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.scopes[-1].known
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_RETURNING_METHODS
                and self._is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.scopes[-1].known.add(target.id)
                else:
                    self.scopes[-1].known.discard(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.scopes[-1].known.discard(element.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation) or (
                node.value is not None and self._is_set_expr(node.value)
            ):
                self.scopes[-1].known.add(node.target.id)
            else:
                self.scopes[-1].known.discard(node.target.id)

    def visit_Delete(self, node: ast.Delete) -> None:
        self.generic_visit(node)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.scopes[-1].known.discard(target.id)

    # -- iteration contexts ----------------------------------------------

    def _flag(self, node: ast.AST, how: str) -> None:
        self.findings.append(
            self.rule.finding(
                self.ctx,
                self.config,
                node,
                f"{how} over a set is order-nondeterministic — wrap the set "
                "in sorted(...) first",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node, "iteration")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node, "iteration")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        if node not in self.sanitized:
            for generator in node.generators:
                if self._is_set_expr(generator.iter):
                    self._flag(node, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension
    visit_DictComp = _check_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set comprehension re-hashes its elements, so drawing *from*
        # a set inside one is only a problem if the comprehension has
        # order-sensitive side effects; building a set from a set is
        # order-insensitive.  Flag only non-set iteration sources used
        # elsewhere — i.e. nothing here — but keep walking.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.args:
            if node.func.id in self.ORDER_SENSITIVE_CALLS and self._is_set_expr(
                node.args[0]
            ):
                self._flag(node, f"{node.func.id}()")
            elif node.func.id in self.ORDER_INSENSITIVE_CALLS and isinstance(
                node.args[0], (ast.ListComp, ast.GeneratorExp, ast.SetComp)
            ):
                self.sanitized.add(node.args[0])
        self.generic_visit(node)


@register
class UnsortedSetIterationRule(Rule):
    code = "DET002"
    title = "no unsorted set iteration in protocol modules"
    rationale = (
        "set iteration order depends on insertion history and hash "
        "randomization; protocol state must not"
    )
    include = _PROTOCOL_MODULES

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        visitor = _Det002Visitor(self, ctx, config)
        visitor.visit(ctx.tree)
        return visitor.findings


@register
class WallClockRule(Rule):
    code = "DET003"
    title = "no wall-clock reads outside the worker supervisor"
    rationale = (
        "simulator core runs on virtual time only; wall clocks belong "
        "to harness/supervise.py and benchmarks/"
    )
    include = ("src/repro/*",)
    exclude = (
        # Supervision is *about* real time: deadlines, liveness polls
        # and backoff all read the monotonic clock — and never touch
        # simulation state (tasks stay pure functions of their payload).
        "src/repro/harness/supervise.py",
    )

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        tracker = ImportTracker.of(ctx.tree)
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = tracker.resolve(node.func)
            if resolved in _WALL_CLOCK_CALLS:
                findings.append(
                    self.finding(
                        ctx,
                        config,
                        node,
                        f"wall-clock call {resolved}() — simulator code runs "
                        "on virtual time; timing belongs in the worker supervisor",
                    )
                )
        return findings

