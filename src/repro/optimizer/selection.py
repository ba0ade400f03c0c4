"""Physical plan for content-based selection queries (Section 8).

The plan composes :class:`~repro.optimizer.operators.FilterCascade` (filters
inferred from the query and the labeled set, applied to discard irrelevant
frames) with detector verification over the survivors (at a cost reduced by
any spatial crop), object-level predicate evaluation (class, UDFs, area,
spatial position), :class:`~repro.optimizer.operators.TrackAggregator`
identity resolution, the per-track duration constraint and FrameQL record
materialisation.

Because every candidate frame is verified by the detector, the plan can only
produce false negatives (a frame wrongly discarded by a filter), never false
positives — matching the paper's error accounting for these queries.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.api.hints import QueryHints, require_hints
from repro.core.context import ExecutionContext
from repro.core.events import (
    Completed,
    ExecutionControl,
    ExecutionEvent,
    Progress,
    SelectionWindow,
)
from repro.core.results import OperatorNode, SelectionResult
from repro.detection.columnar import DetectionBatch
from repro.errors import PlanningError
from repro.frameql.analyzer import SelectionQuerySpec
from repro.frameql.records import RecordTable
from repro.metrics.runtime import ExecutionLedger
from repro.obs.trace import operator_scope
from repro.optimizer.base import CostEstimate, PhysicalPlan
from repro.optimizer.operators import (
    FilterCascade,
    TrackAggregator,
    predicate_mask,
)
from repro.selection.filters import TemporalFilter
from repro.selection.plan import SelectionPlan
from repro.video.frame_batch import FrameBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import VideoStatistics

__all__ = ["SelectionQueryPlan"]


class SelectionQueryPlan(PhysicalPlan):
    """Filter pipeline followed by detection and predicate evaluation."""

    _UNSET = object()

    def __init__(
        self,
        spec: SelectionQuerySpec,
        enabled_filter_classes: set[str] | None = _UNSET,  # type: ignore[assignment]
        hints: QueryHints | None = None,
    ) -> None:
        if spec.object_class is None and not spec.udf_predicates:
            raise PlanningError(
                "selection queries need a class predicate or at least one UDF predicate"
            )
        self.spec = spec
        self.hints = require_hints(hints) or QueryHints()
        # The explicit ``enabled_filter_classes`` argument (historical API,
        # where ``None`` means "all") wins over hints.
        if enabled_filter_classes is self._UNSET:
            self.enabled_filter_classes = self.hints.enabled_filter_classes
        else:
            self.enabled_filter_classes = enabled_filter_classes
        self._cascade = FilterCascade(spec, self.enabled_filter_classes)

    def describe(self) -> str:
        enabled = (
            sorted(self.enabled_filter_classes)
            if self.enabled_filter_classes is not None
            else "all"
        )
        return (
            f"SelectionQueryPlan(class={self.spec.object_class}, "
            f"udfs={[p.udf_name for p in self.spec.udf_predicates]}, "
            f"filters={enabled})"
        )

    def _filters_disabled(self) -> bool:
        return (
            self.enabled_filter_classes is not None
            and not self.enabled_filter_classes
        )

    def operator_tree(
        self,
        num_frames: int | None = None,
        stats: VideoStatistics | None = None,
    ) -> OperatorNode:
        spec = self.spec
        enabled = (
            ", ".join(sorted(self.enabled_filter_classes))
            if self.enabled_filter_classes is not None
            else "all"
        )
        calls: int | None = None
        verify_seconds: float | None = None
        cascade_calls: int | None = None
        cascade_seconds: float | None = None
        if num_frames is not None and stats is not None:
            calls = self.estimate_detector_calls(num_frames, stats)
            verify_seconds = stats.detector_seconds(calls)
            cascade_calls = 0
            cascade_seconds = stats.filter_seconds(
                num_frames
            ) + stats.specialized_inference_seconds(num_frames)
        children: tuple[OperatorNode, ...] = ()
        if not self._filters_disabled():
            children += (
                OperatorNode(
                    "FilterCascade",
                    detail=f"classes={enabled}",
                    estimated_detector_calls=cascade_calls,
                    estimated_seconds=cascade_seconds,
                ),
            )
        children += (
            OperatorNode(
                "DetectorVerifier",
                detail="surviving frames only",
                estimated_detector_calls=calls,
                estimated_seconds=verify_seconds,
            ),
            OperatorNode(
                "PredicateEvaluation",
                detail=f"udfs={[p.udf_name for p in spec.udf_predicates]}",
            ),
            OperatorNode("TrackAggregator", detail="IoU tracker"),
        )
        return OperatorNode(
            "SelectionQueryPlan",
            detail=f"class={spec.object_class}",
            children=children,
        )

    def _pruning_enabled(self) -> bool:
        """Whether any frame-discarding filter class may be inferred.

        Only content and label filters prune frames (spatial scales cost,
        temporal only prunes under a track-duration constraint); a
        filter-class restriction that excludes both leaves every frame to be
        verified.
        """
        enabled = self.enabled_filter_classes
        if enabled is None:
            return True
        return bool({"label", "content"} & enabled)

    def estimate_detector_calls(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> int:
        # Survivors are verified exactly once, so the population is the only
        # *bound* that always holds: the inferred filters' no-false-negative
        # thresholds are calibrated at execution time, and their pass rate on
        # a rare or hard-to-model class can be almost anything.  The
        # survival-based reduction is an expectation used for candidate
        # pricing (:meth:`estimate_cost`), not a bound.
        return num_frames

    def estimate_cost(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> CostEstimate:
        base = super().estimate_cost(num_frames, stats)
        if stats is None or self._filters_disabled():
            return base
        if self._pruning_enabled():
            survival = stats.selection_survival(self.spec.object_class)
            expected_calls = min(num_frames, math.ceil(num_frames * survival))
        else:
            expected_calls = num_frames
        # The cascade runs cheap filters over every frame; a label filter
        # additionally trains a presence model and scores every frame.
        enabled = self.enabled_filter_classes
        trainable = (
            (enabled is None or "label" in enabled)
            and stats.class_stats(self.spec.object_class) is not None
        )
        return CostEstimate(
            detector_calls=expected_calls,
            detector_seconds=stats.detector_seconds(expected_calls),
            training_seconds=stats.specialized_training_seconds() if trainable else 0.0,
            inference_seconds=(
                stats.specialized_inference_seconds(num_frames) if trainable else 0.0
            ),
            filter_seconds=stats.filter_seconds(num_frames),
        )

    # -- execution --------------------------------------------------------------------

    def _stream(
        self, context: ExecutionContext, control: ExecutionControl
    ) -> Iterator[ExecutionEvent]:
        ledger = ExecutionLedger()
        yield Progress(
            phase="filter_inference", total_frames=context.video.num_frames
        )
        with self._cascade.traced(context, ledger):
            plan = self._cascade.build(context, ledger)
            all_frames = np.arange(context.video.num_frames, dtype=np.int64)
            surviving = plan.apply_batch(
                FrameBatch(context.video, all_frames), ledger
            ).indices
        # Shard-aware entry: the filter survivors are the exact detector
        # workload, verified in ascending frame order across the shards.
        context.announce_access_plan(surviving, monotone=True)
        yield Progress(
            phase="filter_pipeline",
            frames_scanned=ledger.frames_decoded,
            detector_calls=ledger.detector_calls,
            total_frames=int(surviving.size),
        )

        cost_scale = plan.detection_cost_scale
        window_limit = control.stop.limit
        # Early stopping on provisional windows is unsound for duration
        # queries: a track straddling the scanned prefix has not yet met
        # min_track_frames, so fragments of one real event could be counted
        # as several windows.  Those queries scan fully and only truncate
        # the finished window list.
        provisional_limit = (
            window_limit if self.spec.min_track_frames is None else None
        )
        verified: list[DetectionBatch] = []
        records = RecordTable.empty()
        matched_frames: set[int] = set()
        candidates_pending = False
        taken = 0
        with operator_scope(context, "DetectorVerifier", ledger):
            while taken < surviving.size:
                if control.should_stop(ledger):
                    break
                stop_at = min(
                    int(surviving.size), taken + control.batch_allowance(ledger)
                )
                batch = context.detect_batch(
                    surviving[taken:stop_at], ledger, cost_scale=cost_scale
                )
                verified.append(batch)
                taken = stop_at
                yield Progress(
                    phase="detector_verification",
                    frames_scanned=ledger.frames_decoded,
                    detector_calls=ledger.detector_calls,
                    total_frames=int(surviving.size),
                )
                if provisional_limit is not None:
                    # Provisional evaluation over the detections so far: stop
                    # as soon as enough matched windows exist.  (Without a
                    # limit the predicates are evaluated exactly once, after
                    # the full scan.)  Track resolution over the full prefix
                    # is quadratic in the worst case, so it only reruns when a
                    # batch actually adds a detection that passes the
                    # object-level predicates — batches of non-candidates
                    # cannot change the window count.
                    candidates_pending = candidates_pending or bool(
                        predicate_mask(batch, self.spec, context.udf_registry).any()
                    )
                    if not candidates_pending:
                        continue
                    records, matched_frames = self._evaluate_predicates(
                        context, verified, plan
                    )
                    candidates_pending = False
                    if len(self._windows(matched_frames, plan)) >= provisional_limit:
                        control.note_stop("limit")
                        break
        if provisional_limit is None or (
            taken >= surviving.size and control.stop_reason is None
        ):
            records, matched_frames = self._evaluate_predicates(
                context, verified, plan
            )

        windows = self._windows(matched_frames, plan)
        if window_limit is not None and len(windows) > window_limit:
            windows = windows[:window_limit]
            kept = {
                frame
                for start, end in windows
                for frame in range(start, end + 1)
            }
            matched_frames = {f for f in matched_frames if f in kept}
            records = records.select(np.isin(records.frame_index, sorted(kept)))
        for position, (start, end) in enumerate(windows, start=1):
            yield SelectionWindow(
                start_frame=start,
                end_frame=end,
                matched_frames=sum(1 for f in matched_frames if start <= f <= end),
                windows_so_far=position,
            )
        yield Completed(
            SelectionResult(
                kind="selection",
                method="filtered" if plan.filters else "exhaustive",
                ledger=ledger,
                detection_calls=sum(len(batch) for batch in verified),
                plan_description=plan.describe(),
                records=records,
                matched_frames=sorted(matched_frames),
                frames_scanned=int(all_frames.size),
                frames_after_filters=int(surviving.size),
            ),
            stop_reason=control.stop_reason,
        )

    def _windows(
        self, matched_frames: set[int], plan: SelectionPlan
    ) -> list[tuple[int, int]]:
        """Contiguous windows of matched frames (subsample-step tolerant)."""
        step = max(1, self._subsample_step(plan))
        windows: list[tuple[int, int]] = []
        for frame in sorted(matched_frames):
            if windows and frame - windows[-1][1] <= step:
                windows[-1] = (windows[-1][0], frame)
            else:
                windows.append((frame, frame))
        return windows

    # -- predicate evaluation -----------------------------------------------------------------

    def _subsample_step(self, plan: SelectionPlan) -> int:
        for filter_ in plan.filters:
            if isinstance(filter_, TemporalFilter):
                return filter_.subsample_step
        return 1

    def _evaluate_predicates(
        self,
        context: ExecutionContext,
        verified: list[DetectionBatch],
        plan: SelectionPlan,
    ) -> tuple[RecordTable, set[int]]:
        spec = self.spec
        step = self._subsample_step(plan)

        # Resolve track identities over the processed frames.  A looser IoU
        # threshold is used when frames were subsampled, since objects move
        # further between processed frames.
        iou_threshold = 0.7 if step == 1 else 0.3
        aggregator = TrackAggregator(
            iou_threshold=iou_threshold, max_gap=max(1, step)
        )
        with aggregator.traced(context):
            tracks = aggregator.resolve(DetectionBatch.concat(verified))

        min_detections = 1
        if spec.min_track_frames is not None:
            min_detections = max(1, math.ceil(spec.min_track_frames / step))

        with operator_scope(context, "PredicateEvaluation"):
            keep = (
                predicate_mask(tracks[0].batch, spec, context.udf_registry)
                if tracks
                else None
            )
            records = aggregator.materialize(tracks, keep, min_detections)
        return records, set(records.frame_index.tolist())
