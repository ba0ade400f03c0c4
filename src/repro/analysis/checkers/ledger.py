"""RPR002 — ledger accounting: detector access flows through
``ExecutionContext``.

Every frame the reproduction "pays for" must be charged to the runtime
ledger, and the only sanctioned charging path is
``ExecutionContext.detect_batch`` (``detect_counts_batch`` is a sketch
pre-pass in front of it), plus the detector implementations themselves.
A direct ``detector.detect(...)``, ``.detect_many(...)``, or
``._detect_batch(...)`` call anywhere else silently produces detections
the cost model never sees, which corrupts both the throughput numbers and
the cross-path result-identity guarantee.

Allowed sites:

* modules under ``<pkg>/core/`` and ``<pkg>/detection/`` (the charging
  machinery and the detector implementations);
* methods of ``ObjectDetector`` subclasses anywhere (a detector may call
  its own primitives, e.g. ``super()._detect_batch(...)``), resolved
  through the project class hierarchy.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.checkers.base import Checker
from repro.analysis.project import ProjectModel, dotted_name

_DETECT_METHODS = {"detect_many", "_detect_batch"}
_DETECTOR_BASE = "ObjectDetector"


class LedgerAccountingChecker(Checker):
    rule = "RPR002"
    title = "detector invocations must flow through ExecutionContext"

    def check(self, project: ProjectModel) -> Iterator[Diagnostic]:
        pkg = project.package
        allowed_prefixes = (f"{pkg}/core/", f"{pkg}/detection/")
        for info in project.modules.values():
            if info.relpath.startswith(allowed_prefixes):
                continue
            for func, context, cls in project.iter_functions(info):
                if cls is not None:
                    cinfo = project.find_class(f"{info.name}.{cls.name}")
                    if cinfo is not None and project.is_subclass(
                        cinfo, _DETECTOR_BASE
                    ):
                        continue
                for node in ast.walk(func):
                    if not isinstance(node, ast.Call):
                        continue
                    if not isinstance(node.func, ast.Attribute):
                        continue
                    attr = node.func.attr
                    if attr in _DETECT_METHODS:
                        pass
                    elif attr == "detect":
                        # `.detect` is a common verb; only flag it on a
                        # receiver that is plainly a detector.
                        receiver = dotted_name(node.func.value) or ""
                        if "detector" not in receiver.lower():
                            continue
                    else:
                        continue
                    yield self.diagnostic(
                        info,
                        node.lineno,
                        node.col_offset,
                        f"direct detector call `.{attr}(...)` bypasses "
                        "ledger accounting",
                        context=context,
                        hint=(
                            "invoke the detector via ExecutionContext."
                            "detect_batch so frames are charged to the "
                            "runtime ledger"
                        ),
                    )


__all__ = ["LedgerAccountingChecker"]
