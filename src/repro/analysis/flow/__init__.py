"""Whole-program (interprocedural) tier of lotus-lint.

Builds a project model + call graph + dataflow summaries over every
module matching ``LintConfig.flow_project_patterns`` and runs the
FLW010, FLW011, FLW013 and FLW014 rules.  Entry point: :func:`run_flow`.
"""

from .callgraph import CallGraph, CallSite, build_call_graph
from .project import (
    ClassModel,
    DataclassField,
    FunctionModel,
    ModuleImportTracker,
    ModuleModel,
    ProjectModel,
    module_name_of,
)
from .rules import (
    FlowContext,
    FlowRule,
    all_flow_rules,
    flow_rule_codes,
    register_flow,
    run_flow,
)
from .summaries import FlowSummaries, FunctionFacts, build_summaries

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassModel",
    "DataclassField",
    "FlowContext",
    "FlowRule",
    "FlowSummaries",
    "FunctionFacts",
    "FunctionModel",
    "ModuleImportTracker",
    "ModuleModel",
    "ProjectModel",
    "all_flow_rules",
    "build_call_graph",
    "build_summaries",
    "flow_rule_codes",
    "module_name_of",
    "register_flow",
    "run_flow",
]
