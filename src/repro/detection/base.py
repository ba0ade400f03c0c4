"""Detector interface and detection records.

A :class:`Detection` corresponds to one row of the FrameQL schema (Table 1)
before entity resolution: the object class, the mask (bounding box), the
detector confidence and the feature vector.  ``trackid`` is assigned later by
the tracking substrate, on the :class:`~repro.tracking.track.ResolvedTrack`
that groups detections — a ``Detection`` may be shared between queries
through the cross-query cache, so nothing writes it after the detector made
it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.metrics.runtime import ExecutionLedger, OperatorCost, RuntimeLedger
from repro.video.geometry import BoundingBox
from repro.video.synthetic import SyntheticVideo


@dataclass
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


@dataclass
class DetectionResult:
    """All detections produced for one frame."""

    frame_index: int
    timestamp: float
    detections: list[Detection] = field(default_factory=list)

    def of_class(self, object_class: str) -> list[Detection]:
        """Detections of one object class."""
        return [d for d in self.detections if d.object_class == object_class]

    def count(self, object_class: str | None = None) -> int:
        """Number of detections, optionally restricted to one class."""
        if object_class is None:
            return len(self.detections)
        return sum(1 for d in self.detections if d.object_class == object_class)


def resolve_detection_batch(
    frame_indices,
    execution_ledger: ExecutionLedger | None,
    compute_misses,
) -> list[DetectionResult]:
    """Serve a batch of frames from the detection cache, computing the misses.

    The cache accounting behind :meth:`ObjectDetector.detect_many`: frames
    already in the execution ledger's per-execution cache — and repeats
    within the batch — are accounted as cache hits, exactly as a sequential
    loop of cache-aware ``detect`` calls would do; the deduplicated misses are
    computed by ``compute_misses(miss_frames)`` (which owns all charging) and
    recorded into the cache.  Results come back in input order.
    """
    order = [int(i) for i in frame_indices]
    out: list[DetectionResult | None] = [None] * len(order)
    miss_frames: list[int] = []
    scheduled: set[int] = set()
    for pos, frame_index in enumerate(order):
        cached = (
            execution_ledger.cached_detection(frame_index)
            if execution_ledger is not None
            else None
        )
        if cached is not None:
            execution_ledger.record_cache_hit()
            out[pos] = cached
        elif frame_index in scheduled:
            if execution_ledger is not None:
                execution_ledger.record_cache_hit()
        else:
            scheduled.add(frame_index)
            miss_frames.append(frame_index)
    if miss_frames:
        computed = dict(zip(miss_frames, compute_misses(miss_frames), strict=True))
        if execution_ledger is not None:
            for frame_index, result in computed.items():
                execution_ledger.record_detection(frame_index, result)
        for pos, frame_index in enumerate(order):
            if out[pos] is None:
                out[pos] = computed[frame_index]
    return out  # type: ignore[return-value]


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
    def detect(
        self,
        video: SyntheticVideo,
        frame_index: int,
        ledger: RuntimeLedger | None = None,
    ) -> DetectionResult:
        """Run detection on one frame, charging the cost to ``ledger`` if given."""

    def detect_many(
        self,
        video: SyntheticVideo,
        frame_indices: list[int] | np.ndarray,
        ledger: RuntimeLedger | None = None,
    ) -> list[DetectionResult]:
        """Run detection on several frames, never recomputing a repeated frame.

        The batch is routed through the cache-aware path: when ``ledger`` is
        an :class:`~repro.metrics.runtime.ExecutionLedger`, frames already in
        its per-execution detection cache are served (and accounted) as cache
        hits, and freshly computed frames are recorded into it — exactly the
        accounting a sequential loop of cache-aware ``detect`` calls would
        produce.  Repeats within the batch are computed and charged once;
        with a plain ledger the deduped repeats are simply free.

        Subclasses vectorize the actual computation by overriding
        :meth:`_detect_batch`; the deduping and cache bookkeeping live in
        :func:`resolve_detection_batch`.
        """
        execution_ledger = ledger if isinstance(ledger, ExecutionLedger) else None
        return resolve_detection_batch(
            frame_indices,
            execution_ledger,
            lambda miss_frames: self._detect_batch(video, miss_frames, ledger),
        )

    def _detect_batch(
        self,
        video: SyntheticVideo,
        frame_indices: list[int],
        ledger: RuntimeLedger | None = None,
    ) -> list[DetectionResult]:
        """Compute detections for a deduplicated batch of frames.

        The vectorization hook behind :meth:`detect_many`: implementations
        charge ``ledger`` once per frame and may share work across the batch.
        The default simply loops :meth:`detect`.
        """
        return [self.detect(video, int(i), ledger) for i in frame_indices]

    def supported_classes(self) -> set[str] | None:
        """Object classes the detector can return, or ``None`` for "any"."""
        return None
