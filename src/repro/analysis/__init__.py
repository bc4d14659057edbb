"""``lotus-lint``: AST-based determinism & resource-discipline analyzer.

Static backstop for the invariants the runtime parity suites pin:
bit-exact simulation traces across backends and schedules.  The rules
reject the known ways a change breaks those invariants — global-state
randomness, unsorted set iteration in protocol code, wall-clock reads
in the simulator core, protocol draws from the network/churn streams,
unguarded counter writes, and unpicklable pool task specs — at review
time, before an expensive parity-matrix job has to find them.

Every run checks two tiers in one pass:

* **Per-file** (DET001–DET003, API006): one module at a time,
  syntactic.
* **Flow** (FLW010, FLW011, FLW013, FLW014): whole-program call graph +
  dataflow summaries, so an invariant violated three calls away from
  its anchor point is still caught.  See :mod:`repro.analysis.flow`.

Entry points::

    lotus-eater lint [--format text|json|github] [--rules CODES] [paths...]

    from repro.analysis import run_lint, LintConfig
    result = run_lint(["src"], LintConfig())
"""

from .findings import Finding
from .flow import FlowRule, all_flow_rules, flow_rule_codes, run_flow
from .rules import FileContext, LintConfig, Rule, all_rules, rule_codes
from .runner import (
    LintResult,
    analyze_source,
    detect_root,
    format_github,
    format_json,
    format_text,
    iter_python_files,
    run_lint,
)
from .suppressions import Suppression, scan_suppressions

__all__ = [
    "FileContext",
    "Finding",
    "FlowRule",
    "LintConfig",
    "LintResult",
    "Rule",
    "Suppression",
    "all_flow_rules",
    "all_rules",
    "analyze_source",
    "detect_root",
    "flow_rule_codes",
    "format_github",
    "format_json",
    "format_text",
    "iter_python_files",
    "rule_codes",
    "run_flow",
    "run_lint",
    "scan_suppressions",
]
