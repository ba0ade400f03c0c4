"""Detector interface and detection records.

A :class:`Detection` corresponds to one row of the FrameQL schema (Table 1)
before entity resolution: the object class, the mask (bounding box), the
detector confidence and the feature vector.  ``trackid`` is assigned later by
the tracking substrate, on the :class:`~repro.tracking.track.ResolvedTrack`
that groups detections — a ``Detection`` may be shared between queries
through the cross-query cache, so nothing writes it after the detector made
it.

Detector output is stored as columns (:mod:`repro.detection.columnar`):
one ``DetectionBatch`` per call, which is also a sequence of per-frame
:class:`DetectionResult` views.

An :class:`ObjectDetector` is a pure function of (video, frames) with one
hook, :meth:`ObjectDetector.detect_columns`.  It holds no ledger and no
cache: charging, deduplication and caching happen in one place, the source
cascade of :meth:`~repro.core.context.ExecutionContext.detect_batch`.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.frameql.schema import fields_equal
from repro.metrics.runtime import OperatorCost
from repro.video.geometry import BoundingBox
from repro.video.synthetic import SyntheticVideo

if TYPE_CHECKING:
    from repro.detection.columnar import DetectionBatch


@dataclass(slots=True)
class Detection:
    """One detected object in one frame."""

    frame_index: int
    timestamp: float
    object_class: str
    box: BoundingBox
    confidence: float
    features: np.ndarray | None = None
    track_id: int | None = None
    color: tuple[float, float, float] | None = None
    color_name: str | None = None

    @property
    def area(self) -> float:
        """Area of the detection's bounding box."""
        return self.box.area

    def __eq__(self, other: object) -> bool:
        """Field-for-field equality, feature vectors compared by value."""
        if not isinstance(other, Detection):
            return NotImplemented
        return fields_equal(self, other)


@dataclass(slots=True)
class DetectionResult:
    """All detections produced for one frame: the per-frame convenience over
    a :class:`~repro.detection.columnar.DetectionBatch`, which the engine
    itself passes whole.

    ``detections`` is any sequence of :class:`Detection`: a list when the
    result is built by hand (a custom detector, a test), or a
    :class:`~repro.detection.columnar.DetectionRows` view of the frame's rows
    when it is read out of a batch (``batch[i]``, iterating a batch).
    """

    frame_index: int
    timestamp: float
    detections: Sequence[Detection] = field(default_factory=list)

    def count(self, object_class: str | None = None) -> int:
        """Number of detections, optionally restricted to one class.

        A columnar result answers from its class column without building a
        ``Detection``.
        """
        if object_class is None:
            return len(self.detections)
        class_count: Callable[[str], int] | None = getattr(
            self.detections, "class_count", None
        )
        if class_count is not None:
            return class_count(object_class)
        return sum(1 for d in self.detections if d.object_class == object_class)


class ObjectDetector(abc.ABC):
    """Interface every object detection method implements.

    The user-configurable object detection method of Section 3: BlazeIt "aims
    to be as accurate as the configured methods" and treats the detector
    output as ground truth.
    """

    #: Human-readable detector name (e.g. ``"mask_rcnn"``).
    name: str = "detector"

    #: Whether the detector holds the GIL for the duration of a call.  A
    #: well-behaved binding releases the GIL while the accelerator works (the
    #: simulated detector models that: its *charged* latency is overlappable),
    #: so threads parallelize it; a detector that computes in pure Python or
    #: through a GIL-holding extension must declare ``True`` so the optimizer
    #: knows only process workers can overlap it.
    gil_bound: bool = False

    @property
    @abc.abstractmethod
    def cost(self) -> OperatorCost:
        """Simulated cost of one detection call."""

    @abc.abstractmethod
    def detect_columns(
        self, video: SyntheticVideo, frame_indices: Sequence[int] | np.ndarray
    ) -> DetectionBatch:
        """The detections of ``frame_indices``, in order, as one column batch.

        The one hook a detector implements: a pure function of the video and
        the frames.  It charges nothing and caches nothing (who pays for a
        frame, and whether it is computed at all, is decided by
        :meth:`~repro.core.context.ExecutionContext.detect_batch`), and a
        repeated frame is simply detected again.  A detector that works one
        frame at a time can return
        :meth:`DetectionBatch.from_detections` of its per-frame results.
        """

    def detect_many(
        self, video: SyntheticVideo, frame_indices: Sequence[int] | np.ndarray
    ) -> DetectionBatch:
        """The detections of ``frame_indices``: :meth:`detect_columns`'s batch
        (a sequence of one result per frame), on the live detection path.

        Defined here only: the end-to-end harness wraps this method on
        ``ObjectDetector`` by name, so a subclass overrides
        :meth:`detect_columns` instead.
        """
        return self.detect_columns(video, frame_indices)

    def detect(self, video: SyntheticVideo, frame_index: int) -> DetectionResult:
        """The detections of one frame (a convenience over :meth:`detect_many`)."""
        return self.detect_many(video, [frame_index])[0]

    def supported_classes(self) -> set[str] | None:
        """Object classes the detector can return, or ``None`` for "any"."""
        return None
