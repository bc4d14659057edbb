"""Rule framework for ``lotus-lint``.

Each rule is an :mod:`ast`-level checker with a stable code (``DET001``
…), a severity, and default path scoping expressed as ``fnmatch``
patterns over the repo-relative POSIX path (``*`` crosses ``/``).  The
:class:`LintConfig` can enable a subset of rules, override severities,
and replace a rule's include patterns — the test corpus uses that to
aim rules at fixture files.

Rules register themselves via the :func:`register` decorator; the
runner instantiates every registered rule per file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type

from .findings import Finding

__all__ = [
    "FileContext",
    "LintConfig",
    "Rule",
    "register",
    "all_rules",
    "rule_codes",
    "ImportTracker",
    "dotted_name",
    "is_slice_view",
]


@dataclass
class FileContext:
    """One parsed file handed to every applicable rule."""

    rel_path: str
    source: str
    tree: ast.Module
    lines: List[str]

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


@dataclass
class LintConfig:
    """Analyzer configuration.

    The defaults encode this repository's invariants; everything is
    overridable so tests (and future repos) can re-scope rules.
    """

    #: ``None`` enables every registered rule.
    enabled: Optional[frozenset] = None
    severity_overrides: Mapping[str, str] = field(default_factory=dict)
    #: Per-rule replacement of the default include patterns.
    include_overrides: Mapping[str, Sequence[str]] = field(default_factory=dict)

    # API006 — the batched-phase scatter-add sites allowed to write
    # counter columns directly (the pairs of one wave are node-disjoint,
    # so += is an exact scatter-add there).
    api006_allowed_functions: Tuple[str, ...] = (
        "run_phase",
        "_push_pass_batched",
        "_exchange_apply_clean",
        "_exchange_pass_mixed",
        "_push_pass_mixed",
        "_apply_dump",
        "_attack_out_of_band",
    )

    # ------------------------------------------------------------------
    # Flow tier (FLW010, FLW011, FLW013, FLW014) — whole-program knobs.  Per-file rules
    # above see one module; the flow analyzer sees every module matching
    # ``flow_project_patterns`` at once.
    # ------------------------------------------------------------------

    #: Modules (fnmatch over repo-relative paths) forming the analyzed
    #: project for the call graph.  Tests and benchmarks are excluded:
    #: the invariants below are about shipped worker code.
    flow_project_patterns: Tuple[str, ...] = ("src/*",)

    # FLW010 — write disjointness of the batched sweeps.  Entry points
    # whose reachable set is scanned for writes into shared population
    # buffers; both reach every sweep through ``run_phase``.
    flw010_roots: Tuple[str, ...] = (
        "run_exchanges_batched",
        "_push_pass_batched",
    )
    #: Attribute names identifying a shared population buffer when the
    #: base object is not function-local (``pop.counters``,
    #: ``store.have_words`` …).
    flw010_buffer_attrs: Tuple[str, ...] = (
        "counters",
        "have_words",
        "live_words",
    )
    #: Index names treated as row guards: exact names plus
    #: prefixes (``rows``, ``rows_i`` …).
    flw010_row_names: Tuple[str, ...] = ("row", "rows")
    flw010_row_prefixes: Tuple[str, ...] = ("row_", "rows_")
    #: Calls whose results are cell-disjoint row selections; a name
    #: assigned from one of these is a row guard too.
    flw010_row_sources: Tuple[str, ...] = (
        "_rows_of_ids",
        "flatnonzero",
        "nonzero",
        "arange",
    )
    #: Constructors producing *function-local* stores/populations:
    #: buffers hanging off a locally-constructed object are private to
    #: the caller, so unguarded writes to them are fine.
    flw010_local_factories: Tuple[str, ...] = (
        "Population",
        "WordPopulationStore",
        "UpdateStore",
        "BitsetUpdateStore",
    )
    #: Modules hosting the guarded write APIs themselves (the row-offset
    #: bookkeeping FLW010 cannot see through `self._row` attributes).
    flw010_exempt_modules: Tuple[str, ...] = (
        "src/repro/bargossip/population.py",
        "src/repro/bargossip/node.py",
        "src/repro/bargossip/updates.py",
    )

    # FLW011 — RNG-stream discipline.  Attribute/name spellings of the
    # schedule streams: reading one outside event-schedule code, or
    # feeding a value derived from one into a protocol draw, is a leak.
    flw011_stream_names: Tuple[str, ...] = ("_net_rng", "_churn_rng")
    #: Event-schedule scopes allowed to draw the schedule streams, by
    #: enclosing function name or name prefix (protocol phases never
    #: touch them, which keeps rounds and event schedules bit-exact).
    flw011_allowed_functions: Tuple[str, ...] = (
        "_step_event",
        "_transmit",
        "_deliverable",
        "_arm_churn",
        "_bootstrap",
        "_sample_delivery_times",
    )
    flw011_allowed_prefixes: Tuple[str, ...] = ("_on_",)
    #: Handle spellings that must not escape into pool task specs.
    flw011_handle_names: Tuple[str, ...] = (
        "_net_rng",
        "_churn_rng",
        "_streams",
        "RngStreams",
    )
    #: Protocol-draw entry points: a schedule-stream-tainted value
    #: arriving at any of these (directly or through helpers) is a leak.
    flw011_protocol_sinks: Tuple[str, ...] = (
        "_exchange_directed",
        "_push_directed",
        "interact_exchange",
        "attacker_dump",
        "maybe_report",
        "_push_bitset",
        "_record_push",
        "run_exchanges",
        "run_pushes",
        "run_phase",
        "run_exchanges_batched",
        "run_pushes_batched",
        "_push_pass_batched",
        "plan_balanced_exchange",
        "plan_optimistic_push",
        "bitset_exchange",
        "batched_word_exchange",
        "batched_word_push",
        "batched_word_dump",
        "_exchange_apply_clean",
        "_exchange_pass_mixed",
        "_push_pass_mixed",
        "_apply_dump",
        "_file_dump_report",
    )

    # FLW011/FLW013 — dataclasses that cross a process boundary as pool
    # task specs, by class-name suffix.
    task_spec_suffixes: Tuple[str, ...] = ("Task",)

    # FLW014 — fault-injection discipline.  The registered site names:
    # every ``fault_point("...")`` call must use one of these literals
    # (mirrors ``repro.faults.FAULT_SITES``; the analysis layer keeps
    # its own copy so lint has no runtime import of the library —
    # ``tests/analysis`` pins the two in sync).
    flw014_sites: Tuple[str, ...] = (
        "worker:cell",
        "cache:record",
    )
    #: Entry points of the retry/recovery machinery (bare function
    #: names): everything reachable from these must stay protocol-free
    #: — no reads of the schedule/protocol RNG streams, no calls into
    #: protocol-draw sinks.  Deliberately the *decision* paths only
    #: (backoff, quarantine, injection), not the dispatch paths
    #: that legitimately re-execute protocol code on retry.
    flw014_retry_roots: Tuple[str, ...] = (
        "backoff_delay",
        "fault_point",
        "_claim_hit",
        "_quarantine",
    )
    #: Stream attributes the retry machinery must never read — the
    #: FLW011 schedule streams plus the protocol-order stream and the
    #: simulator's stream bundle.
    flw014_protected_streams: Tuple[str, ...] = (
        "_net_rng",
        "_churn_rng",
        "_order_rng",
        "_streams",
    )

    def is_enabled(self, code: str) -> bool:
        return self.enabled is None or code in self.enabled

    def severity_for(self, rule: "Rule") -> str:
        return self.severity_overrides.get(rule.code, rule.severity)

    def patterns_for(self, rule: "Rule") -> Tuple[Sequence[str], Sequence[str]]:
        return self.include_overrides.get(rule.code, rule.include), rule.exclude


def _matches(rel_path: str, patterns: Sequence[str]) -> bool:
    return any(fnmatch(rel_path, pattern) for pattern in patterns)


class Rule:
    """Base class: one invariant, one code, one checker."""

    code: str = ""
    title: str = ""
    rationale: str = ""
    severity: str = "error"
    #: fnmatch patterns over the repo-relative POSIX path.
    include: Tuple[str, ...] = ("src/repro/*",)
    exclude: Tuple[str, ...] = ()

    def applies_to(self, rel_path: str, config: LintConfig) -> bool:
        include, exclude = config.patterns_for(self)
        return _matches(rel_path, include) and not _matches(rel_path, exclude)

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        config: LintConfig,
        node: ast.AST,
        message: str,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.code,
            path=ctx.rel_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=config.severity_for(self),
            snippet=ctx.snippet(line),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    code = rule_class.code
    if not code:
        raise ValueError(f"rule {rule_class.__name__} has no code")
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code}")
    _REGISTRY[code] = rule_class
    return rule_class


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by code."""
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rule_codes() -> List[str]:
    return sorted(_REGISTRY)


def dotted_name(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def is_slice_view(node: ast.AST) -> bool:
    """``x[:, c]``, ``x[a:b]``: a subscript whose index holds a slice.

    Such a subscript is a view, so a write through it lands in ``x``.
    """
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice
    parts = index.elts if isinstance(index, ast.Tuple) else [index]
    return any(isinstance(part, ast.Slice) for part in parts)


class ImportTracker(ast.NodeVisitor):
    """Resolve local names to the modules/objects they import.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``.  Used by rules to
    recognise ``np.random.shuffle`` or ``_time.perf_counter`` regardless
    of aliasing.
    """

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            # `import a.b` binds `a`; `import a.b as c` binds `c -> a.b`.
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never reach stdlib random/time
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of ``node``, if importable."""
        parts = dotted_name(node)
        if not parts:
            return None
        head = self.aliases.get(parts[0])
        if head is None:
            return None
        return ".".join([head] + parts[1:])

    @classmethod
    def of(cls, tree: ast.Module) -> "ImportTracker":
        tracker = cls()
        tracker.visit(tree)
        return tracker
