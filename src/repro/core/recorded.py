"""Recorded detector output over a whole video.

The paper notes that "because of the extreme computational cost of running
object detection, we ran the object detection method once and recorded the
results" (Section 10.2); runtimes are then extrapolated from the number of
detection calls.  :class:`RecordedDetections` is that recording: the detector
is run once over every frame (wall-clock cost paid once, outside any query),
and query plans that "call the detector" read from the recording while still
charging the detector's simulated cost to their runtime ledger.
"""

from __future__ import annotations

import numpy as np

from repro.detection.base import DetectionResult, ObjectDetector
from repro.detection.columnar import DetectionBatch
from repro.metrics.runtime import RuntimeLedger
from repro.video.synthetic import SyntheticVideo


class RecordedDetections:
    """Cache of detector output for every frame of one video."""

    def __init__(
        self,
        video: SyntheticVideo,
        detector: ObjectDetector,
        results: list[DetectionResult],
    ) -> None:
        if len(results) != video.num_frames:
            raise ValueError(
                f"expected {video.num_frames} recorded frames, got {len(results)}"
            )
        self.video = video
        self.detector = detector
        self._results = results
        self._count_cache: dict[str, np.ndarray] = {}
        self._batch: DetectionBatch | None = None

    @classmethod
    def build(
        cls, video: SyntheticVideo, detector: ObjectDetector
    ) -> "RecordedDetections":
        """Run the detector over every frame of ``video`` and record the output.

        Materialisation goes through the detector's vectorized batch path
        (:meth:`~repro.detection.base.ObjectDetector.detect_many`), which is
        bit-for-bit identical to a per-frame ``detect`` loop.
        """
        results = detector.detect_many(video, np.arange(video.num_frames))
        return cls(video, detector, results)

    # -- access ---------------------------------------------------------------

    @property
    def num_frames(self) -> int:
        """Number of recorded frames."""
        return len(self._results)

    def result(
        self, frame_index: int, ledger: RuntimeLedger | None = None
    ) -> DetectionResult:
        """The recorded detection result for one frame.

        Charges one detector invocation to ``ledger`` when provided: reading
        the recording stands in for actually running the detector.
        """
        if ledger is not None:
            ledger.charge(self.detector.cost)
        return self._results[frame_index]

    @property
    def batch(self) -> DetectionBatch:
        """The whole recording as one column batch (built on first use)."""
        if self._batch is None:
            self._batch = DetectionBatch.from_results(self._results)
        return self._batch

    def observed_classes(self) -> set[str]:
        """Every object class that appears anywhere in the recording."""
        return self.batch.present_classes()

    def counts(self, object_class: str) -> np.ndarray:
        """Per-frame detected count of one object class (no cost charged)."""
        cached = self._count_cache.get(object_class)
        if cached is None:
            cached = self._count_cache[object_class] = self.batch.class_counts(object_class)
        return cached

    def count_at(
        self,
        frame_index: int,
        object_class: str,
        ledger: RuntimeLedger | None = None,
    ) -> int:
        """Detected count of one class at one frame, charging a detection call."""
        if ledger is not None:
            ledger.charge(self.detector.cost)
        return self._results[frame_index].count(object_class)

    def presence(self, object_class: str) -> np.ndarray:
        """Boolean per-frame presence of one object class (no cost charged)."""
        return self.counts(object_class) > 0

    def satisfies_min_counts(
        self,
        frame_index: int,
        min_counts: dict[str, int],
        ledger: RuntimeLedger | None = None,
    ) -> bool:
        """Whether a frame satisfies a conjunction of per-class count thresholds."""
        if ledger is not None:
            ledger.charge(self.detector.cost)
        result = self._results[frame_index]
        return all(
            result.count(object_class) >= min_count
            for object_class, min_count in min_counts.items()
        )

    def frames_satisfying(self, min_counts: dict[str, int]) -> np.ndarray:
        """All frame indices satisfying a count conjunction (ground truth, free)."""
        mask = np.ones(self.num_frames, dtype=bool)
        for object_class, min_count in min_counts.items():
            mask &= self.counts(object_class) >= min_count
        return np.nonzero(mask)[0]

    def mean_count(self, object_class: str) -> float:
        """The true frame-averaged count (the FCOUNT ground truth)."""
        counts = self.counts(object_class)
        if counts.size == 0:
            return 0.0
        return float(counts.mean())
