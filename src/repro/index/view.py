"""Query-time adapter over one committed index generation.

:class:`IndexView` is what an :class:`~repro.core.context.ExecutionContext`
holds: a thin, stateless façade over a :class:`~repro.index.store.VideoIndex`
that serves exact detector output without charging the detector.  What was
served or skipped is counted where every other source is counted — in the
caller's :class:`~repro.metrics.runtime.ExecutionLedger` — so the view keeps
no counters and needs no lock.

Two serving modes, both provably identical to running the detector:

* **hit** — the frame's range contains detections somewhere, so the frame is
  decoded from the memory-mapped segment (persisted detector output is exact);
* **skip** — the range sketch proves the whole range empty, so an empty
  ``DetectionResult`` is synthesized without touching the segment
  (``timestamp = frame / fps`` matches ``SyntheticVideo.timestamp_of``
  bit-for-bit).

The view also answers the sketch's exact per-frame proofs
(:meth:`class_count_zero`, :meth:`fails_min_counts`) so count scans and
min-count probes can skip provably-irrelevant frames without any decode —
invariant I7: index evidence is an upper bound, skipping never changes
results.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.detection.base import DetectionResult
from repro.index.sketches import RangeSketch
from repro.index.store import VideoIndex


class IndexView:
    """Read façade over one :class:`VideoIndex` generation."""

    def __init__(self, index: VideoIndex) -> None:
        self.index = index
        self.cache_key = index.cache_key
        self._fps = float(index.fps)

    @property
    def video_name(self) -> str:
        """The registered video name the index was built for."""
        return self.index.video

    @property
    def num_frames(self) -> int:
        """Number of frames the index covers."""
        return self.index.num_frames

    @property
    def sketch(self) -> RangeSketch:
        """The generation's exact range sketch."""
        return self.index.sketch

    def get(self, frame_index: int) -> tuple[DetectionResult, bool] | None:
        """Serve one frame's exact detections: ``(result, skipped)``.

        ``skipped=True`` means the sketch proved the covering range empty and
        the result was synthesized without decoding the segment.  Returns
        ``None`` only for frames outside the indexed range.
        """
        if not 0 <= frame_index < self.index.num_frames:
            return None
        if self.index.sketch.frame_is_provably_empty(frame_index):
            result = DetectionResult(
                frame_index=frame_index,
                timestamp=frame_index / self._fps,
                detections=[],
            )
            return result, True
        return self.index.result_for(frame_index), False

    def class_count_zero(self, frame_index: int, object_class: str) -> bool:
        """``True`` when the class provably has count 0 at the frame."""
        if not 0 <= frame_index < self.index.num_frames:
            return False
        return self.index.sketch.class_absent_at(frame_index, object_class)

    def fails_min_counts(
        self, frame_index: int, min_counts: Mapping[str, int]
    ) -> bool:
        """``True`` when the min-count conjunction is provably unsatisfiable."""
        if not 0 <= frame_index < self.index.num_frames:
            return False
        return self.index.sketch.fails_min_counts(frame_index, min_counts)

    def close(self) -> None:
        """Release the underlying memory maps."""
        self.index.close()


__all__ = ["IndexView"]
