"""Track-aggregation operator: identity resolution and record materialisation."""

from __future__ import annotations

import numpy as np

from repro.detection.columnar import DetectionBatch
from repro.frameql.records import RecordTable
from repro.optimizer.operators.base import PhysicalOperator
from repro.tracking.iou_tracker import IoUTracker
from repro.tracking.track import ResolvedTrack


class TrackAggregator(PhysicalOperator):
    """Resolve track identities over detection results with the IoU tracker.

    The shared tail stage of every record-producing plan: exact scans and
    selections resolve tracks before materialising FrameQL records, and
    ``COUNT(DISTINCT trackid)`` reduces the resolved tracks to a count.
    Plans that subsample frames pass a looser IoU threshold and a larger gap,
    since objects move further between processed frames.
    """

    name = "TrackAggregator"

    def __init__(self, iou_threshold: float = 0.7, max_gap: int = 1) -> None:
        self.tracker = IoUTracker(iou_threshold=iou_threshold, max_gap=max_gap)

    def describe(self) -> str:
        return (
            f"TrackAggregator(iou={self.tracker.iou_threshold}, "
            f"gap={self.tracker.max_gap})"
        )

    def resolve(self, batch: DetectionBatch) -> list[ResolvedTrack]:
        """Resolve track identities over a batch of detections."""
        return self.tracker.resolve(batch)

    def distinct_count(self, batch: DetectionBatch, object_class: str | None) -> float:
        """``COUNT(DISTINCT trackid)``: resolved tracks, optionally one class."""
        tracks = self.resolve(batch)
        if object_class is not None:
            tracks = [t for t in tracks if t.object_class == object_class]
        return float(len(tracks))

    def materialize(
        self,
        tracks: list[ResolvedTrack],
        keep: np.ndarray | None = None,
        min_rows: int = 1,
    ) -> RecordTable:
        """One FrameQL record per tracked row, track by track, as a column
        table of those rows.

        ``keep`` (a row mask over the tracks' batch) restricts the records to
        the rows it selects, and only tracks with at least ``min_rows``
        selected rows produce any.
        """
        if not tracks:
            return RecordTable.empty()
        batch = tracks[0].batch
        rows = np.concatenate([track.rows for track in tracks])
        lengths = [track.length for track in tracks]
        track_ids = np.repeat(
            np.asarray([track.track_id for track in tracks], dtype=np.int64), lengths
        )
        if keep is not None:
            kept = keep[rows]
            position = np.repeat(np.arange(len(tracks)), lengths)
            enough = np.bincount(position[kept], minlength=len(tracks)) >= min_rows
            kept &= enough[position]
            rows = rows[kept]
            track_ids = track_ids[kept]
        return RecordTable(batch.gather(rows), track_ids)
