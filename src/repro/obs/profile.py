"""EXPLAIN ANALYZE: per-operator actual vs estimated cost profiles.

``execute(analyze=True)`` attaches an :class:`ExecutionProfile` to the
result: the per-operator estimates the optimizer recorded on the plan when it
chose it (the EXPLAIN tree, index repricing included) next to the *actual*
detector calls and wall seconds each operator's span recorded.  :meth:`ExecutionProfile.render` is the human-readable EXPLAIN
ANALYZE output; :func:`estimate_errors` feeds the optimizer calibration
report (``python -m repro.obs calibration``).

Profiles are display-only: they ride on results and over the wire, but
:func:`repro.service.protocol.result_fingerprint` excludes them, so a traced
result stays byte-identical to an untraced one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.trace import SpanRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - results carry a profile, so core imports obs
    from repro.core.results import OperatorNode


@dataclass(frozen=True)
class OperatorProfile:
    """One operator row: the estimate it was planned at vs what it did.

    ``actual_detector_calls``/``actual_seconds`` are ``None`` for operators
    whose span never opened (branches the adaptive plans skipped at runtime).
    """

    name: str
    detail: str = ""
    depth: int = 0
    estimated_detector_calls: int | None = None
    estimated_seconds: float | None = None
    actual_detector_calls: int | None = None
    actual_seconds: float | None = None


@dataclass(frozen=True)
class ExecutionProfile:
    """The EXPLAIN ANALYZE payload attached to a traced result."""

    kind: str
    plan_summary: str
    trace_id: str
    operators: tuple[OperatorProfile, ...] = ()
    spans: tuple[SpanRecord, ...] = field(default_factory=tuple, compare=False)

    def render(self) -> str:
        """EXPLAIN ANALYZE table: operator tree with actual vs estimated."""
        lines = [f"{self.kind}: {self.plan_summary}  [trace {self.trace_id}]"]
        for op in self.operators:
            label = f"{op.name}({op.detail})" if op.detail else op.name
            est = (
                f"~{op.estimated_detector_calls} calls"
                if op.estimated_detector_calls is not None
                else "~? calls"
            )
            if op.actual_detector_calls is None:
                actual = "(not executed)"
            else:
                actual = f"{op.actual_detector_calls} calls"
                if op.actual_seconds is not None:
                    actual += f", {op.actual_seconds:.3f}s"
            lines.append(
                "  " * (op.depth + 1) + f"{label}  est {est} -> actual {actual}"
            )
        return "\n".join(lines)

    def explain(self) -> str:
        """Alias of :meth:`render` (the EXPLAIN ANALYZE surface)."""
        return self.render()


def _flatten_tree(node: OperatorNode, depth: int = 0) -> list[tuple[OperatorNode, int]]:
    rows = [(node, depth)]
    for child in node.children:
        rows.extend(_flatten_tree(child, depth + 1))
    return rows


def build_profile(
    kind: str,
    plan_summary: str,
    tree: OperatorNode,
    tracer: Tracer,
) -> ExecutionProfile:
    """Join the plan's recorded estimated operator tree with the spans.

    Operator spans are matched by operator name; multiple activations of the
    same operator (e.g. per-chunk scans) are summed.  When the tree holds
    duplicate names, the aggregate is attributed to the first occurrence.
    """
    spans = tuple(tracer.records())
    actual_calls: dict[str, int] = {}
    actual_seconds: dict[str, float] = {}
    for span in spans:
        if span.attributes.get("kind") != "operator":
            continue
        actual_calls[span.name] = actual_calls.get(span.name, 0) + int(
            span.attributes.get("detector_calls", 0)
        )
        actual_seconds[span.name] = (
            actual_seconds.get(span.name, 0.0) + span.wall_duration
        )
    operators = []
    claimed: set[str] = set()
    for node, depth in _flatten_tree(tree):
        if node.name in actual_calls and node.name not in claimed:
            claimed.add(node.name)
            calls: int | None = actual_calls[node.name]
            seconds: float | None = actual_seconds[node.name]
        else:
            calls = None
            seconds = None
        operators.append(
            OperatorProfile(
                name=node.name,
                detail=node.detail,
                depth=depth,
                estimated_detector_calls=node.estimated_detector_calls,
                estimated_seconds=node.estimated_seconds,
                actual_detector_calls=calls,
                actual_seconds=seconds,
            )
        )
    return ExecutionProfile(
        kind=kind,
        plan_summary=plan_summary,
        trace_id=tracer.trace_id,
        operators=tuple(operators),
        spans=spans,
    )


def estimate_errors(profiles: list[ExecutionProfile]) -> list[dict[str, Any]]:
    """Per-operator estimate-error rows across a batch of profiles.

    Only operators that both carry an estimate and actually executed
    contribute; the relative error is ``(actual - estimated) / max(1, est)``
    on detector calls — the currency the optimizer prices plans in.
    """
    rows: list[dict[str, Any]] = []
    for profile in profiles:
        for op in profile.operators:
            if (
                op.estimated_detector_calls is None
                or op.actual_detector_calls is None
            ):
                continue
            estimated = op.estimated_detector_calls
            actual = op.actual_detector_calls
            rows.append(
                {
                    "kind": profile.kind,
                    "operator": op.name,
                    "estimated_detector_calls": estimated,
                    "actual_detector_calls": actual,
                    "relative_error": (actual - estimated) / max(1, estimated),
                }
            )
    return rows


__all__ = [
    "ExecutionProfile",
    "OperatorProfile",
    "build_profile",
    "estimate_errors",
]
