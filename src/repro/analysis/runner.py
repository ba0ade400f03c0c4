"""Run checkers over a project and apply inline pragmas."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.checkers import all_checkers
from repro.analysis.checkers.base import Checker
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.pragmas import pragma_allows
from repro.analysis.project import ProjectModel


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced, pre-sorted."""

    findings: list[Diagnostic] = field(default_factory=list)
    suppressed: list[Diagnostic] = field(default_factory=list)
    modules_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def run_analysis(
    root: Path,
    *,
    package: str | None = None,
    checkers: list[Checker] | None = None,
    project: ProjectModel | None = None,
) -> AnalysisReport:
    """Analyze the package at ``root`` and triage every diagnostic into
    active finding / pragma-suppressed."""
    if project is None:
        project = ProjectModel.build(root, package)
    if checkers is None:
        checkers = all_checkers()

    by_relpath = {info.relpath: info for info in project.modules.values()}
    report = AnalysisReport(modules_scanned=len(project.modules))
    raw: list[Diagnostic] = []
    for checker in checkers:
        raw.extend(checker.check(project))

    for diag in sorted(set(raw)):
        module = by_relpath.get(diag.path)
        if module is not None and pragma_allows(
            module.pragmas, diag.line, diag.rule
        ):
            report.suppressed.append(diag)
        else:
            report.findings.append(diag)
    return report


__all__ = ["AnalysisReport", "run_analysis"]
