"""Resolved tracks produced by entity resolution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.base import Detection
from repro.detection.columnar import DetectionBatch


@dataclass(frozen=True, eq=False)
class ResolvedTrack:
    """A group of detections the tracker considers the same object.

    ``trackid`` in the FrameQL schema (Table 1): "a unique identifier for a
    continuous time segment when the object is visible.  If the object exists
    and re-enters the scene, it will be assigned a new trackid."

    A track is a view: ``rows`` (in frame order) of the column batch the
    tracker resolved.  The batch is never written — it may hold the shared
    cross-query cache's rows — so the track a row belongs to is the
    ``track_id`` of the group holding it.
    """

    track_id: int
    object_class: str
    batch: DetectionBatch
    rows: np.ndarray

    @property
    def detections(self) -> list[Detection]:
        """The grouped rows as ``Detection`` objects (built on every read)."""
        return self.batch.objects(self.rows)

    @property
    def frames(self) -> np.ndarray:
        """Frame index of every grouped row, in order."""
        return self.batch.frame_index[self.batch.frame_rows(self.rows)]

    @property
    def start_frame(self) -> int:
        """First frame index of the track."""
        return int(self.frames[0])

    @property
    def end_frame(self) -> int:
        """Last frame index of the track (inclusive)."""
        return int(self.frames[-1])

    @property
    def length(self) -> int:
        """Number of detections grouped into this track."""
        return int(self.rows.size)
