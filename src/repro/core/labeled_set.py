"""The labeled set: detector output over the training and held-out days.

Section 2: "we assume that a small representative sample of the video is
annotated with an object detector: this data is used as training data for
filters and specialized NNs ... This labeled set can be constructed once,
offline, and shared for multiple queries later."  The paper uses one day of
video for training labels and one day for threshold computation; the
reproduction mirrors that with the ``train`` and ``heldout`` splits of a
scenario.

Building the labeled set is an offline step whose cost is *not* charged to
query ledgers (matching the paper's measurement methodology); what *is*
charged per query is specialized-NN training on top of the labeled set, when
``include_training_time`` is enabled.
"""

from __future__ import annotations

import numpy as np

from repro.core.recorded import RecordedDetections
from repro.detection.base import ObjectDetector
from repro.video.synthetic import SyntheticVideo


class LabeledSet:
    """Features and detector labels for the training and held-out days."""

    def __init__(
        self,
        train_video: SyntheticVideo,
        heldout_video: SyntheticVideo,
        train_recorded: RecordedDetections,
        heldout_recorded: RecordedDetections,
    ) -> None:
        self.train_video = train_video
        self.heldout_video = heldout_video
        self.train_recorded = train_recorded
        self.heldout_recorded = heldout_recorded

    @classmethod
    def build(
        cls,
        train_video: SyntheticVideo,
        heldout_video: SyntheticVideo,
        detector: ObjectDetector,
    ) -> "LabeledSet":
        """Run the detector over both days and assemble the labeled set."""
        return cls(
            train_video=train_video,
            heldout_video=heldout_video,
            train_recorded=RecordedDetections.build(train_video, detector),
            heldout_recorded=RecordedDetections.build(heldout_video, detector),
        )

    # -- features ----------------------------------------------------------------

    @property
    def train_features(self) -> np.ndarray:
        """Cheap per-frame features of the training day (the video's memo)."""
        return self.train_video.all_features()

    @property
    def heldout_features(self) -> np.ndarray:
        """Cheap per-frame features of the held-out day (the video's memo)."""
        return self.heldout_video.all_features()

    # -- labels ------------------------------------------------------------------

    def train_counts(self, object_class: str) -> np.ndarray:
        """Per-frame detector counts of one class on the training day."""
        return self.train_recorded.counts(object_class)

    def heldout_counts(self, object_class: str) -> np.ndarray:
        """Per-frame detector counts of one class on the held-out day."""
        return self.heldout_recorded.counts(object_class)

    def train_presence(self, object_class: str) -> np.ndarray:
        """Boolean per-frame presence of one class on the training day."""
        return self.train_recorded.presence(object_class)

    def heldout_presence(self, object_class: str) -> np.ndarray:
        """Boolean per-frame presence of one class on the held-out day."""
        return self.heldout_recorded.presence(object_class)

    def training_positives(self, object_class: str) -> int:
        """Number of training-day frames containing at least one instance."""
        return int(self.train_presence(object_class).sum())

    def training_instances(self, min_counts: dict[str, int]) -> int:
        """Number of training-day frames satisfying a count conjunction."""
        return int(self.train_recorded.frames_satisfying(min_counts).size)
