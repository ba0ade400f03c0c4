"""Resolved tracks produced by entity resolution."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection.base import Detection


@dataclass
class ResolvedTrack:
    """A group of detections the tracker considers the same object.

    ``trackid`` in the FrameQL schema (Table 1): "a unique identifier for a
    continuous time segment when the object is visible.  If the object exists
    and re-enters the scene, it will be assigned a new trackid."
    """

    track_id: int
    object_class: str
    detections: list[Detection] = field(default_factory=list)

    @property
    def start_frame(self) -> int:
        """First frame index of the track."""
        return min(d.frame_index for d in self.detections)

    @property
    def end_frame(self) -> int:
        """Last frame index of the track (inclusive)."""
        return max(d.frame_index for d in self.detections)

    @property
    def length(self) -> int:
        """Number of detections grouped into this track."""
        return len(self.detections)

    def add(self, detection: Detection) -> None:
        """Append a detection to the group.

        The detection itself is not written: it may be the shared
        cross-query cache's entry, which other queries are reading and which
        snapshots persist as exact detector output.  The track a detection
        belongs to is ``track.track_id`` of the group holding it.
        """
        self.detections.append(detection)
