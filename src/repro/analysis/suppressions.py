"""Inline suppression comments for ``lotus-lint``.

Syntax::

    risky_line()  # lotus: ignore[DET001] one-line justification
    # lotus: ignore[DET002,DET003] applies to the next line
    the_next_line()

A trailing suppression applies to findings reported on its own physical
line; a standalone suppression comment applies to the line directly
below it (so long statements keep their justification readable).  When
the covered line opens a *multi-line simple statement* (a parenthesized
call, a continued assignment …), the suppression covers every physical
line of that statement — a finding anchored on a continuation line is
still inside the statement the author annotated.  Compound statements
(``def``, ``for``, ``with`` …) are deliberately not expanded: a comment
on a ``def`` line must not silence the whole body.  The rule list is
mandatory — a bare ``# lotus: ignore`` is reported as a malformed
suppression so typos never silently disable the analyzer.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Suppression", "expand_statement_spans", "scan_suppressions"]

_SUPPRESS_RE = re.compile(
    r"lotus:\s*ignore\[(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\]\s*(?P<reason>.*)$"
)
_MARKER_RE = re.compile(r"lotus:\s*ignore")


@dataclass
class Suppression:
    """One parsed ``# lotus: ignore[...]`` comment."""

    #: Physical line of the comment itself.
    comment_line: int
    #: Line whose findings this suppression covers.
    target_line: int
    rules: frozenset
    reason: str = ""


def _iter_comments(source: str) -> List[Tuple[int, int, str]]:
    """Yield ``(line, col, text)`` for every comment token.

    Tokenization fails on files with invalid syntax; those fall back to
    a line-based scan, which is exact except for ``#`` inside string
    literals (acceptable for a diagnostics path).
    """
    comments: List[Tuple[int, int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = []
        for number, text in enumerate(source.splitlines(), start=1):
            position = text.find("#")
            if position >= 0:
                comments.append((number, position, text[position:]))
    return comments


def scan_suppressions(
    source: str, tree: Optional[ast.Module] = None
) -> Tuple[Dict[int, List[Suppression]], List[int]]:
    """Parse all suppressions in ``source``.

    Returns ``(by_target_line, malformed_lines)`` where the mapping
    keys are the lines each suppression covers.  When the file parses
    (pass ``tree`` to reuse an existing parse), suppressions targeting
    the first line of a multi-line simple statement are expanded to
    cover the whole statement.
    """
    by_line: Dict[int, List[Suppression]] = {}
    malformed: List[int] = []
    for line, col, text in _iter_comments(source):
        if not _MARKER_RE.search(text):
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            malformed.append(line)
            continue
        rules = frozenset(
            part.strip().upper() for part in match.group("rules").split(",")
        )
        # A comment with nothing but whitespace before it on the line
        # stands alone and covers the next line; a trailing comment
        # covers its own line.
        standalone = col == 0 or not _line_prefix_has_code(source, line, col)
        target = line + 1 if standalone else line
        suppression = Suppression(
            comment_line=line,
            target_line=target,
            rules=rules,
            reason=match.group("reason").strip(),
        )
        by_line.setdefault(target, []).append(suppression)
    if by_line:
        if tree is None:
            try:
                tree = ast.parse(source)
            except SyntaxError:
                tree = None
        if tree is not None:
            expand_statement_spans(by_line, tree)
    return by_line, malformed


#: Statement types a suppression span may expand over.  Compound
#: statements are excluded on purpose: covering a whole function body
#: from one comment would hide unrelated findings.
_SIMPLE_STATEMENTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
)


def expand_statement_spans(
    by_line: Dict[int, List[Suppression]], tree: ast.Module
) -> Dict[int, List[Suppression]]:
    """Extend suppressions over the full span of multi-line statements.

    A suppression whose target line opens a simple statement that
    continues onto later physical lines (parenthesized arguments,
    continued right-hand sides …) is registered for every line of that
    statement, so findings anchored on continuation lines are covered.
    """
    for node in ast.walk(tree):
        if not isinstance(node, _SIMPLE_STATEMENTS):
            continue
        end_line = getattr(node, "end_lineno", None) or node.lineno
        if end_line <= node.lineno:
            continue
        owners = by_line.get(node.lineno)
        if not owners:
            continue
        for extra_line in range(node.lineno + 1, end_line + 1):
            registered = by_line.setdefault(extra_line, [])
            for suppression in owners:
                if all(existing is not suppression for existing in registered):
                    registered.append(suppression)
    return by_line



def _line_prefix_has_code(source: str, line: int, col: int) -> bool:
    lines = source.splitlines()
    if not 1 <= line <= len(lines):
        return False
    return bool(lines[line - 1][:col].strip())
