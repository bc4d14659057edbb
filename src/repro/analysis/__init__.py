"""``lotus-lint``: AST-based determinism & resource-discipline analyzer.

Static backstop for the invariants the runtime parity suites pin:
bit-exact simulation traces across backends and schedules.  The rules
reject the known ways a change breaks those invariants — global-state
randomness, unsorted set iteration in protocol code, wall-clock reads
in the simulator core, protocol draws from the network/churn streams,
unguarded counter writes, and unpicklable pool task specs — at review
time, before an expensive parity-matrix job has to find them.

Two tiers:

* **Per-file** (DET/RNG/API/PKL rules): one module at a time,
  syntactic, fast.
* **Flow** (FLW010, FLW011, FLW013, FLW014, ``--flow``): whole-program call graph +
  dataflow summaries, so an invariant violated three calls away from
  its anchor point is still caught.  See :mod:`repro.analysis.flow`.

Entry points::

    lotus-eater lint [--flow] [--format text|json|github] [paths...]

    from repro.analysis import run_lint, LintConfig
    result = run_lint(["src"], LintConfig(), flow=True)
"""

from .baseline import Baseline, BaselineEntry
from .cache import CACHE_DIR_NAME, LintCache
from .findings import Finding, finding_fingerprint
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
    "Baseline",
    "BaselineEntry",
    "CACHE_DIR_NAME",
    "FileContext",
    "Finding",
    "FlowRule",
    "LintCache",
    "LintConfig",
    "LintResult",
    "Rule",
    "Suppression",
    "all_flow_rules",
    "all_rules",
    "analyze_source",
    "detect_root",
    "finding_fingerprint",
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
