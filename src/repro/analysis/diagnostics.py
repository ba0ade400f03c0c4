"""Typed diagnostics and output formatting for the invariant analyzer."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is; both levels gate CI, warnings are advisory."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: a rule violated at a specific source location.

    ``context`` is the dotted path of the enclosing scope (module, class,
    or function qualname).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    context: str = ""
    hint: str = ""
    severity: Severity = field(default=Severity.ERROR, compare=False)

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "context": self.context,
            "message": self.message,
            "hint": self.hint,
        }


def _format_text(diagnostics: list[Diagnostic]) -> str:
    lines = []
    for diag in diagnostics:
        where = f"{diag.path}:{diag.line}:{diag.col}"
        lines.append(
            f"{where}: {diag.severity.value} {diag.rule} {diag.message}"
            + (f" [{diag.context}]" if diag.context else "")
        )
        if diag.hint:
            lines.append(f"    hint: {diag.hint}")
    return "\n".join(lines)


def _format_github(diagnostics: list[Diagnostic]) -> str:
    """GitHub Actions workflow commands: annotations on the PR diff."""
    lines = []
    for diag in diagnostics:
        level = "error" if diag.severity is Severity.ERROR else "warning"
        message = diag.message
        if diag.hint:
            message = f"{message} — {diag.hint}"
        # Workflow-command data must escape newlines and percent signs.
        message = (
            message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        )
        lines.append(
            f"::{level} file={diag.path},line={diag.line},col={diag.col},"
            f"title={diag.rule}::{message}"
        )
    return "\n".join(lines)


def _format_json(diagnostics: list[Diagnostic]) -> str:
    return json.dumps([diag.to_json() for diag in diagnostics], indent=2)


_FORMATTERS = {
    "text": _format_text,
    "github": _format_github,
    "json": _format_json,
}


def format_diagnostics(diagnostics: list[Diagnostic], fmt: str = "text") -> str:
    """Render ``diagnostics`` in ``fmt`` (``text`` | ``json`` | ``github``)."""
    try:
        formatter = _FORMATTERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown format {fmt!r}; expected one of {sorted(_FORMATTERS)}"
        ) from None
    return formatter(sorted(diagnostics))


__all__ = ["Diagnostic", "Severity", "format_diagnostics"]
