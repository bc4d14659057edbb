"""Finding model for the ``lotus-lint`` static analyzer.

A :class:`Finding` is one rule violation anchored to a file position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["Finding", "SEVERITIES"]

#: Recognised severities, most severe first.  ``error`` findings fail
#: the lint run; ``warning`` findings are reported but do not.
SEVERITIES = ("error", "warning")


@dataclass
class Finding:
    """One rule violation at a file position.

    ``path`` is the repo-relative POSIX path of the analyzed file (or
    the virtual path given to :func:`analyze_source`); ``line`` and
    ``col`` are 1-based / 0-based as in :mod:`ast`.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    #: Stripped text of the offending source line.
    snippet: str = ""
    #: Call-chain evidence for interprocedural (flow-tier) findings:
    #: the qualified names from an entry point down to the function the
    #: finding anchors in.  Empty for per-file findings.
    trace: List[str] = field(default_factory=list)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "snippet": self.snippet,
            "trace": list(self.trace),
        }

    def render(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} {self.severity}: {self.message}"
        )
        if self.trace:
            text += f"\n    via: {' -> '.join(self.trace)}"
        return text
