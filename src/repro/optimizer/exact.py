"""Fallback physical plan: exhaustive detection with record materialisation.

Used for queries the optimizer cannot accelerate (``SELECT *`` with no
predicates, unrecognised query shapes).  It composes the
:class:`~repro.optimizer.operators.FullScan` and
:class:`~repro.optimizer.operators.TrackAggregator` operators: the detector
runs over every frame, track identities are resolved and every FrameQL record
is materialised, which is exactly the "populate the rows" strategy the paper's
optimizations exist to avoid — but it is always available and always correct.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.api.hints import QueryHints, require_hints
from repro.core.context import ExecutionContext
from repro.core.events import (
    Completed,
    ExecutionControl,
    ExecutionEvent,
    Progress,
)
from repro.core.results import ExactResult, OperatorNode
from repro.frameql.analyzer import ExactQuerySpec
from repro.metrics.runtime import ExecutionLedger
from repro.optimizer.base import PhysicalPlan
from repro.optimizer.operators import FullScan, TrackAggregator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import VideoStatistics


class ExactQueryPlan(PhysicalPlan):
    """Run object detection over every frame and materialise all records."""

    def __init__(self, spec: ExactQuerySpec, hints: QueryHints | None = None) -> None:
        self.spec = spec
        self.hints = require_hints(hints) or QueryHints()
        self._scan = FullScan()
        self._tracks = TrackAggregator(iou_threshold=0.7, max_gap=1)

    def describe(self) -> str:
        return f"ExactQueryPlan(reason={self.spec.reason!r})"

    def operator_tree(
        self,
        num_frames: int | None = None,
        stats: VideoStatistics | None = None,
    ) -> OperatorNode:
        calls: int | None = None
        seconds: float | None = None
        if num_frames is not None and stats is not None:
            calls = num_frames
            seconds = stats.detector_seconds(num_frames)
        return OperatorNode(
            "ExactQueryPlan",
            detail=self.spec.reason,
            children=(
                OperatorNode(
                    "FullScan",
                    detail="detection on every frame",
                    estimated_detector_calls=calls,
                    estimated_seconds=seconds,
                ),
                OperatorNode(
                    "TrackAggregator",
                    detail="IoU tracker, all records materialised",
                ),
            ),
        )

    def _stream(
        self, context: ExecutionContext, control: ExecutionControl
    ) -> Iterator[ExecutionEvent]:
        ledger = ExecutionLedger()
        num_frames = context.video.num_frames
        yield Progress(phase="detection_scan", total_frames=num_frames)
        with self._scan.traced(context, ledger):
            scanned = yield from self._scan.stream_detections(
                context, control, ledger
            )
        with self._tracks.traced(context, ledger):
            records = self._tracks.materialize(self._tracks.resolve(scanned))
        yield Completed(
            ExactResult(
                kind="exact",
                method="exhaustive",
                ledger=ledger,
                detection_calls=len(scanned),
                plan_description=(
                    "object detection on every frame, all records materialised"
                ),
                records=records,
            ),
            stop_reason=control.stop_reason,
        )
