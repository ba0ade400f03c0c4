"""Checker plugin interface."""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.project import ModuleInfo, ProjectModel


class Checker:
    """One rule.  Subclasses set ``rule``/``title`` and implement ``check``.

    ``check`` receives the whole project model and yields raw findings;
    pragma filtering happens in the runner, so checkers stay
    oblivious to suppression mechanics.
    """

    rule: str = "RPR000"
    title: str = ""
    severity: Severity = Severity.ERROR

    def check(self, project: ProjectModel) -> Iterator[Diagnostic]:
        raise NotImplementedError

    # -- convenience ---------------------------------------------------------------

    def diagnostic(
        self,
        module: ModuleInfo,
        line: int,
        col: int,
        message: str,
        *,
        context: str = "",
        hint: str = "",
        severity: Severity | None = None,
    ) -> Diagnostic:
        return Diagnostic(
            path=module.relpath,
            line=line,
            col=col,
            rule=self.rule,
            message=message,
            context=context,
            hint=hint,
            severity=severity or self.severity,
        )


__all__ = ["Checker"]
