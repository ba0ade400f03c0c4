"""Full-scan operator: exhaustive detection over every frame."""

from __future__ import annotations

from collections.abc import Callable, Generator

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.events import ExecutionControl, ExecutionEvent, Progress
from repro.detection.columnar import DetectionBatch
from repro.metrics.runtime import ExecutionLedger
from repro.optimizer.operators.base import PhysicalOperator


class FullScan(PhysicalOperator):
    """Run the object detector over every frame, in control-sized batches.

    The always-available, always-correct baseline stage: used directly by the
    exact plan, by aggregates without an error tolerance, and by
    ``COUNT(DISTINCT trackid)``.  Batches shrink to the control's remaining
    detector budget and the scan checks stop conditions at every boundary, so
    truncated scans still hand back a well-formed prefix.
    """

    name = "FullScan"

    def stream_detections(
        self,
        context: ExecutionContext,
        control: ExecutionControl,
        ledger: ExecutionLedger,
    ) -> Generator[ExecutionEvent, None, DetectionBatch]:
        """Scan frames in order, returning the scanned frames' detections."""
        num_frames = context.video.num_frames
        # Shard-aware entry: under parallel execution this starts one
        # prefetch worker per shard; the scan consumes shards front-to-back,
        # so the speculation window is lifted (monotone access).
        context.announce_access_plan(np.arange(num_frames), monotone=True)
        batches: list[DetectionBatch] = []
        scanned = 0
        while scanned < num_frames and not control.should_stop(ledger):
            stop_at = min(num_frames, scanned + control.batch_allowance(ledger))
            batches.append(context.detect_batch(np.arange(scanned, stop_at), ledger))
            scanned = stop_at
            yield Progress(
                phase="detection_scan",
                frames_scanned=ledger.frames_decoded,
                detector_calls=ledger.detector_calls,
                total_frames=num_frames,
            )
        return DetectionBatch.concat(batches)

    def stream_counts(
        self,
        context: ExecutionContext,
        control: ExecutionControl,
        ledger: ExecutionLedger,
        object_class: str,
        emit: Callable[[float, int], ExecutionEvent],
    ) -> Generator[ExecutionEvent, None, tuple[float, int]]:
        """Sum one class's per-frame counts over the video, in frame order.

        Returns ``(total, scanned)``.  ``emit(running_mean, scanned)`` builds
        the estimate event (the aggregate plan supplies its unit conversion):
        one ``Progress`` and one estimate event per chunk.  When the index
        covers every frame, the whole video is one chunk answered from the
        sketch's exact range totals (invariant I7), with no frame decoded.
        Either way ``total`` is an exactly-summed integer, so
        ``total / scanned`` is the same float however it was summed.
        """
        num_frames = context.video.num_frames
        index_view = context.index_view
        if (
            index_view is not None
            and 0 < num_frames == index_view.num_frames
            and not control.should_stop(ledger)
        ):
            ledger.record_index_skip(num_frames)
            total = float(index_view.sketch.class_total(object_class))
            yield Progress(
                phase="detection_scan",
                frames_scanned=ledger.frames_decoded,
                detector_calls=ledger.detector_calls,
                total_frames=num_frames,
            )
            yield emit(total / num_frames, num_frames)
            return total, num_frames
        context.announce_access_plan(np.arange(num_frames), monotone=True)
        scanned = 0
        running_sum = 0.0
        while scanned < num_frames and not control.should_stop(ledger):
            stop_at = min(num_frames, scanned + control.batch_allowance(ledger))
            chunk = context.detect_counts_batch(
                np.arange(scanned, stop_at), object_class, ledger
            )
            running_sum += float(chunk.sum())
            scanned = stop_at
            yield Progress(
                phase="detection_scan",
                frames_scanned=ledger.frames_decoded,
                detector_calls=ledger.detector_calls,
                total_frames=num_frames,
            )
            yield emit(running_sum / scanned, scanned)
        return running_sum, scanned
