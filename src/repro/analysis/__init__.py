"""Static invariant analysis for the reproduction's source tree.

The runtime test suite proves the reproduction's contracts hold on the
inputs the tests happen to exercise; this package proves a class of
violations cannot be *written* without tripping CI.  It is a small,
self-contained framework on stdlib :mod:`ast` and :mod:`symtable` — no new
dependencies — with a pluggable checker architecture:

* :class:`~repro.analysis.checkers.base.Checker` subclasses implement one
  rule each over a :class:`~repro.analysis.project.ProjectModel` (parsed
  modules, import resolution, class hierarchy across ``src/repro``);
* findings are typed :class:`~repro.analysis.diagnostics.Diagnostic`
  objects (rule id, severity, file:line, fix hint);
* intentional violations are suppressed inline with a
  ``# repro: allow[RULE]: reason`` pragma, or grandfathered in the
  committed baseline file (``analysis-baseline.json``) with a one-line
  justification each;
* ``python -m repro.analysis`` runs the whole suite and gates CI on zero
  non-baselined findings.

Shipped rules (see ``docs/INVARIANTS.md`` for the invariant catalog):

========  =====================================================================
RPR001    determinism: no wall-clock or unseeded randomness in result-producing
          modules
RPR002    ledger accounting: detector access flows through ``ExecutionContext``
RPR003    lock discipline: thread-shared state mutated only under its lock;
          lock-acquisition-order graph is cycle-free
RPR004    async hygiene: no blocking calls on the event loop, no ``await``
          under a sync lock
========  =====================================================================
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline
from repro.analysis.checkers import all_checkers
from repro.analysis.diagnostics import Diagnostic, Severity, format_diagnostics
from repro.analysis.project import ClassInfo, ModuleInfo, ProjectModel
from repro.analysis.runner import AnalysisReport, run_analysis

__all__ = [
    "AnalysisReport",
    "Baseline",
    "ClassInfo",
    "Diagnostic",
    "ModuleInfo",
    "ProjectModel",
    "Severity",
    "all_checkers",
    "format_diagnostics",
    "run_analysis",
]
