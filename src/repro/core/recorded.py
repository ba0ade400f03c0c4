"""Recorded detector output over a whole video.

The paper notes that "because of the extreme computational cost of running
object detection, we ran the object detection method once and recorded the
results" (Section 10.2); runtimes are then extrapolated from the number of
detection calls.  :class:`RecordedDetections` is that recording: the
detector's one column batch over every frame (wall-clock cost paid once,
outside any query), replayed through the detector hook under the detector's
name and cost.  A context whose ``detector`` is a recording therefore charges
a replayed call as a live one.  Recordings are driver-only: they refuse to
pickle, so process workers never receive one.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NoReturn

import numpy as np

from repro.detection.base import DetectionResult, ObjectDetector
from repro.detection.columnar import DetectionBatch
from repro.metrics.runtime import OperatorCost
from repro.video.synthetic import SyntheticVideo


class RecordedDetections(ObjectDetector):
    """One detector's output over every frame of one video, replayed."""

    def __init__(
        self, video: SyntheticVideo, detector: ObjectDetector, batch: DetectionBatch
    ) -> None:
        if not np.array_equal(batch.frame_index, np.arange(video.num_frames)):
            raise ValueError(
                f"expected frames 0..{video.num_frames - 1} in order, got {batch.num_frames}"
            )
        self.video = video
        self.detector = detector
        self.batch = batch
        self.name = detector.name
        self.gil_bound = detector.gil_bound
        self._count_cache: dict[str, np.ndarray] = {}

    @classmethod
    def build(cls, video: SyntheticVideo, detector: ObjectDetector) -> RecordedDetections:
        """Run the detector over every frame of ``video`` and record the output.

        One :meth:`~repro.detection.base.ObjectDetector.detect_columns` call
        over the whole video, charged to no ledger: recording happens
        outside any query.
        """
        return cls(video, detector, detector.detect_columns(video, np.arange(video.num_frames)))

    def __reduce__(self) -> NoReturn:
        raise TypeError("recordings are driver-only: a recorded test day cannot be pickled")

    @property
    def cost(self) -> OperatorCost:
        """The recorded detector's cost: a replayed call is charged as a live one."""
        return self.detector.cost

    def detect_columns(
        self, video: SyntheticVideo, frame_indices: Sequence[int] | np.ndarray
    ) -> DetectionBatch:
        """The recorded rows of ``frame_indices``, in order, as a new batch."""
        return self.batch.take(frame_indices)

    # -- free access (ground truth, no cost charged) --------------------------

    @property
    def num_frames(self) -> int:
        """Number of recorded frames."""
        return self.batch.num_frames

    def result(self, frame_index: int) -> DetectionResult:
        """The recorded detection result for one frame."""
        return self.detect(self.video, frame_index)

    def observed_classes(self) -> set[str]:
        """Every object class that appears anywhere in the recording."""
        return self.batch.present_classes()

    def counts(self, object_class: str) -> np.ndarray:
        """Per-frame detected count of one class."""
        cached = self._count_cache.get(object_class)
        if cached is None:
            cached = self._count_cache[object_class] = self.batch.class_counts(object_class)
        return cached

    def presence(self, object_class: str) -> np.ndarray:
        """Boolean per-frame presence of one class."""
        return self.counts(object_class) > 0

    def satisfies_min_counts(self, frame_index: int, min_counts: dict[str, int]) -> bool:
        """Whether a frame satisfies a conjunction of per-class count thresholds."""
        return all(
            self.counts(object_class)[frame_index] >= min_count
            for object_class, min_count in min_counts.items()
        )

    def frames_satisfying(self, min_counts: dict[str, int]) -> np.ndarray:
        """All frame indices satisfying a count conjunction."""
        mask = np.ones(self.num_frames, dtype=bool)
        for object_class, min_count in min_counts.items():
            mask &= self.counts(object_class) >= min_count
        return np.nonzero(mask)[0]

    def mean_count(self, object_class: str) -> float:
        """The true frame-averaged count (the FCOUNT ground truth)."""
        counts = self.counts(object_class)
        return float(counts.mean()) if counts.size else 0.0
