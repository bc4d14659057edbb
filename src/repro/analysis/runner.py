"""File discovery, orchestration and output for ``lotus-lint``.

The runner walks the given paths, parses each ``*.py`` file once, runs
every enabled per-file rule whose path scope matches, then runs the
whole-program flow rules over the same sources, applies inline
suppressions to both, and renders text, JSON or GitHub annotations.

Exit-code contract (what CI gates on):

* ``0`` — no active error findings.
* ``1`` — at least one active error-severity finding, a syntax error
  in an analyzed file included (LNT002).
* ``2`` — a usage error reported by ``lotus-eater lint`` itself (a
  missing path, an unknown rule code).

Malformed suppression comments (LNT001) are reported as warnings; they
nag without blocking.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .findings import Finding
from .flow import run_flow
from .rules import FileContext, LintConfig, all_rules
from .suppressions import Suppression, scan_suppressions

# Imported for their @register side effect.
from . import determinism as _determinism  # noqa: F401
from . import resources as _resources  # noqa: F401

__all__ = [
    "LintResult",
    "analyze_source",
    "run_lint",
    "iter_python_files",
    "detect_root",
    "format_text",
    "format_json",
    "format_github",
]

#: Meta-diagnostic codes (not AST rules, always on).
MALFORMED_SUPPRESSION = "LNT001"
SYNTAX_ERROR = "LNT002"


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def detect_root(start: Optional[Path] = None) -> Path:
    """Repo root: nearest ancestor holding ``pyproject.toml``.

    Falls back to ``start`` itself so the analyzer still runs on loose
    files outside any project.
    """
    origin = Path(start or Path.cwd()).resolve()
    probe = origin if origin.is_dir() else origin.parent
    for candidate in [probe] + list(probe.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return probe


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """All ``*.py`` files under ``paths``, sorted.

    Hidden directories *below* each walked path are skipped; where the
    walked path itself lives (say, under ``~/.cache``) does not matter.
    """
    found = set()
    for path in paths:
        path = Path(path)
        if path.is_file() and path.suffix == ".py":
            found.add(path.resolve())
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                hidden = any(
                    part.startswith(".") for part in candidate.relative_to(path).parts
                )
                if not hidden:
                    found.add(candidate.resolve())
    return sorted(found)


def _split_suppressed(
    findings: List[Finding], suppressions: Dict[int, List[Suppression]]
) -> Tuple[List[Finding], List[Tuple[Finding, Suppression]]]:
    """Split one file's findings into (active, suppressed)."""
    active: List[Finding] = []
    suppressed: List[Tuple[Finding, Suppression]] = []
    for finding in findings:
        hit = next(
            (
                suppression
                for suppression in suppressions.get(finding.line, [])
                if finding.rule.upper() in suppression.rules
            ),
            None,
        )
        if hit is None:
            active.append(finding)
        else:
            suppressed.append((finding, hit))
    return active, suppressed


def analyze_source(
    source: str,
    rel_path: str,
    config: Optional[LintConfig] = None,
) -> Tuple[List[Finding], List[Tuple[Finding, Suppression]]]:
    """Run the per-file rules on one in-memory file.

    ``rel_path`` is the virtual repo-relative path used for rule
    scoping — the fixture corpus points it at protocol-module paths.
    Returns ``(active findings, suppressed findings)``.
    """
    config = config or LintConfig()
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        finding = Finding(
            rule=SYNTAX_ERROR,
            path=rel_path,
            line=error.lineno or 1,
            col=(error.offset or 1) - 1,
            message=f"file does not parse: {error.msg}",
            severity="error",
        )
        return [finding], []

    ctx = FileContext(
        rel_path=rel_path,
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )
    findings: List[Finding] = []
    for rule in all_rules():
        if config.is_enabled(rule.code) and rule.applies_to(rel_path, config):
            findings.extend(rule.check(ctx, config))

    suppressions, malformed_lines = scan_suppressions(source, tree=tree)
    for line in malformed_lines:
        findings.append(
            Finding(
                rule=MALFORMED_SUPPRESSION,
                path=rel_path,
                line=line,
                col=0,
                message=(
                    "malformed suppression comment — the syntax is "
                    "'# lotus: ignore[RULE1,RULE2] reason'"
                ),
                severity="warning",
                snippet=ctx.snippet(line),
            )
        )

    active, suppressed = _split_suppressed(findings, suppressions)
    active.sort(key=Finding.sort_key)
    return active, suppressed


def run_lint(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Lint every python file under ``paths`` with both tiers.

    ``root`` anchors the repo-relative paths rules match against; by
    default it is detected from the first path.  Every file runs the
    per-file rules; the files matching ``config.flow_project_patterns``
    also form the whole-program model the flow rules (FLW010, FLW011,
    FLW013, FLW014) check.
    """
    config = config or LintConfig()
    files = iter_python_files(paths)
    if root is None:
        root = detect_root(files[0] if files else None)
    root = Path(root).resolve()

    result = LintResult(files_checked=len(files))
    sources: Dict[str, str] = {}
    for file_path in files:
        try:
            rel_path = file_path.relative_to(root).as_posix()
        except ValueError:
            rel_path = file_path.as_posix()
        source = file_path.read_text(encoding="utf-8")
        sources[rel_path] = source
        active, suppressed = analyze_source(source, rel_path, config)
        result.findings.extend(active)
        result.suppressed.extend(suppressed)

    flow_by_path: Dict[str, List[Finding]] = {}
    for finding in run_flow(sources, config):
        flow_by_path.setdefault(finding.path, []).append(finding)
    for path, findings in flow_by_path.items():
        active, suppressed = _split_suppressed(
            findings, scan_suppressions(sources[path])[0]
        )
        result.findings.extend(active)
        result.suppressed.extend(suppressed)

    result.findings.sort(key=Finding.sort_key)
    return result


def format_text(result: LintResult, verbose: bool = False) -> str:
    """Human-readable report."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(finding.render())
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if verbose:
        for finding, suppression in result.suppressed:
            reason = suppression.reason or "(no reason given)"
            lines.append(f"suppressed: {finding.render()} — {reason}")
    lines.append(
        f"{result.files_checked} files checked: "
        f"{len(result.errors)} error(s), {len(result.warnings)} warning(s), "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    """Machine-readable report."""
    payload = {
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [
            {
                "finding": finding.to_dict(),
                "reason": suppression.reason,
                "comment_line": suppression.comment_line,
            }
            for finding, suppression in result.suppressed
        ],
        "summary": {
            "files_checked": result.files_checked,
            "errors": len(result.errors),
            "warnings": len(result.warnings),
            "exit_code": result.exit_code,
        },
    }
    return json.dumps(payload, indent=2)


def _annotation_escape(text: str) -> str:
    """GitHub workflow-command escaping for annotation messages."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def format_github(result: LintResult) -> str:
    """GitHub Actions workflow commands: findings annotate the PR diff."""
    lines: List[str] = []
    for finding in result.findings:
        level = "error" if finding.severity == "error" else "warning"
        message = finding.message
        if finding.trace:
            message += f" [via {' -> '.join(finding.trace)}]"
        lines.append(
            f"::{level} file={finding.path},line={finding.line},"
            f"col={finding.col + 1},title=lotus-lint {finding.rule}::"
            f"{_annotation_escape(message)}"
        )
    lines.append(
        f"{result.files_checked} files checked: "
        f"{len(result.errors)} error(s), {len(result.warnings)} warning(s)"
    )
    return "\n".join(lines)
