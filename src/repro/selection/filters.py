"""The four filter classes of Section 8.

Every filter narrows a :class:`~repro.video.frame_batch.FrameBatch` of
candidate frames to the subset that survives, charging its (cheap) per-frame
cost to the runtime ledger.  The spatial filter is the exception: it does not
prune frames, it reduces the cost of each subsequent detection call by making
the cropped image smaller and more square.

Content filters operate on the cheap per-frame feature vectors (the
reproduction's stand-in for raw pixels); they never look at the ground-truth
objects, so they are genuinely "statistical" and must be calibrated on the
held-out set for no false negatives, exactly as in the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.metrics.runtime import RuntimeLedger, StandardCosts
from repro.specialization.binary_model import BinaryPresenceModel
from repro.video.frame_batch import FrameBatch
from repro.video.synthetic import FEATURE_CHANNELS, FEATURE_GRID


def feature_level_score(features: np.ndarray, udf_name: str) -> np.ndarray:
    """Frame-level UDF score computed from the cheap feature grid.

    Mirrors applying the UDF "over the entire frame (as opposed to the box)"
    (Section 8.1).  Supported UDFs: ``redness``, ``blueness``, ``brightness``.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    cells = FEATURE_GRID * FEATURE_GRID
    grid = features[:, : cells * FEATURE_CHANNELS].reshape(
        features.shape[0], cells, FEATURE_CHANNELS
    )
    red = grid[:, :, 0].sum(axis=1)
    green = grid[:, :, 1].sum(axis=1)
    blue = grid[:, :, 2].sum(axis=1)
    if udf_name == "redness":
        return red - (green + blue) / 2.0
    if udf_name == "blueness":
        return blue - (red + green) / 2.0
    if udf_name == "brightness":
        return (red + green + blue) / 3.0
    raise ValueError(
        f"UDF {udf_name!r} has no frame-level feature implementation"
    )


class FrameFilter(abc.ABC):
    """A filter that discards candidate frames before object detection."""

    #: One of ``"label"``, ``"content"``, ``"temporal"``, ``"spatial"``.
    filter_class: str = "generic"
    name: str = "filter"

    @abc.abstractmethod
    def apply_batch(
        self, batch: FrameBatch, ledger: RuntimeLedger | None = None
    ) -> FrameBatch:
        """The sub-batch of frames that survives the filter.

        Filters that score the cheap features consume the batch's shared
        feature matrix (one model call per batch, no per-filter feature
        regather) and narrow it with a boolean mask.
        """

    #: Multiplier applied to the detection cost of surviving frames (spatial
    #: filters make detection cheaper; everything else leaves it unchanged).
    detection_cost_scale: float = 1.0


@dataclass
class TemporalFilter(FrameFilter):
    """Temporal filtering: subsample frames and restrict to a time range.

    If the query requires an object to be visible for at least ``K`` frames,
    sampling once every ``(K - 1) // 2`` frames cannot miss it (Section 8).
    """

    subsample_step: int = 1
    start_frame: int | None = None
    end_frame: int | None = None

    filter_class = "temporal"
    name = "temporal"

    def __post_init__(self) -> None:
        if self.subsample_step < 1:
            raise ValueError(
                f"subsample_step must be >= 1, got {self.subsample_step}"
            )

    def apply_batch(
        self, batch: FrameBatch, ledger: RuntimeLedger | None = None
    ) -> FrameBatch:
        indices = batch.indices
        mask = np.ones(indices.shape, dtype=bool)
        if self.start_frame is not None:
            mask &= indices >= self.start_frame
        if self.end_frame is not None:
            mask &= indices < self.end_frame
        if self.subsample_step > 1:
            mask &= indices % self.subsample_step == 0
        # Temporal filtering is free: it never looks at the frame.
        return batch if mask.all() else batch.select(mask)


@dataclass
class SpatialFilter(FrameFilter):
    """Spatial filtering: crop/resize to the region of interest.

    Does not prune frames; instead it scales the cost of subsequent object
    detection calls by the cropped area fraction (detectors run faster on
    smaller, squarer inputs).
    """

    roi_x_min: float
    roi_y_min: float
    roi_x_max: float
    roi_y_max: float
    frame_width: float
    frame_height: float

    filter_class = "spatial"
    name = "spatial"

    def __post_init__(self) -> None:
        if self.roi_x_max <= self.roi_x_min or self.roi_y_max <= self.roi_y_min:
            raise ValueError("spatial ROI must have positive area")
        roi_area = (self.roi_x_max - self.roi_x_min) * (self.roi_y_max - self.roi_y_min)
        frame_area = self.frame_width * self.frame_height
        self.detection_cost_scale = max(0.05, min(1.0, roi_area / frame_area))

    def apply_batch(
        self, batch: FrameBatch, ledger: RuntimeLedger | None = None
    ) -> FrameBatch:
        return batch


@dataclass
class ContentFilter(FrameFilter):
    """Content-based filtering on a frame-level UDF score.

    The threshold is calibrated on the held-out set for no false negatives
    (see :mod:`repro.specialization.calibration`).
    """

    udf_name: str
    threshold: float
    estimated_selectivity: float = 1.0

    filter_class = "content"
    name = "content"

    def apply_batch(
        self, batch: FrameBatch, ledger: RuntimeLedger | None = None
    ) -> FrameBatch:
        if len(batch) == 0:
            return batch
        features = batch.features
        if ledger is not None:
            ledger.charge(StandardCosts.SIMPLE_FILTER, len(batch))
        scores = feature_level_score(features, self.udf_name)
        return batch.select(scores >= self.threshold)


@dataclass
class LabelFilter(FrameFilter):
    """Label-based filtering with a binary specialized NN (NoScope-style)."""

    model: BinaryPresenceModel
    threshold: float
    estimated_selectivity: float = 1.0

    filter_class = "label"
    name = "label"

    def apply_batch(
        self, batch: FrameBatch, ledger: RuntimeLedger | None = None
    ) -> FrameBatch:
        if len(batch) == 0:
            return batch
        scores = self.model.predict_proba_present(batch.features, ledger)
        return batch.select(scores >= self.threshold)
