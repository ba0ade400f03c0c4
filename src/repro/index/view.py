"""Query-time adapter over one committed index generation.

:class:`IndexView` is what an :class:`~repro.core.context.ExecutionContext`
holds: a thin, stateless façade over a :class:`~repro.index.store.VideoIndex`
that serves exact detector output without charging the detector.  What was
served or skipped is counted where every other source is counted — in the
caller's :class:`~repro.metrics.runtime.ExecutionLedger` — so the view keeps
no counters and needs no lock.

A read is one call per batch: :meth:`IndexView.get` takes every frame the
earlier tiers of the source cascade left over, settles the two serving modes
for all of them at once, and returns ``{frame: (result, skipped)}``.  Both
modes are provably identical to running the detector:

* **hit** — the frame's range contains detections somewhere, so the frame is
  decoded from the memory-mapped segment, together with every other hit of
  the batch (:meth:`VideoIndex.results_for`: one gather and one decode per
  segment; persisted detector output is exact);
* **skip** — the range sketch proves the whole range empty, so an empty
  ``DetectionResult`` is synthesized without touching the segment
  (``timestamp = frame / fps`` matches ``SyntheticVideo.timestamp_of``
  bit-for-bit).

The view also answers the sketch's exact per-frame proofs
(:meth:`class_count_zero` — one mask per batch — and
:meth:`fails_min_counts`) so count scans and
min-count probes can skip provably-irrelevant frames without any decode —
invariant I7: index evidence is an upper bound, skipping never changes
results.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

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

    def get(
        self, frame_indices: np.ndarray | list[int]
    ) -> dict[int, tuple[DetectionResult, bool]]:
        """Serve a batch of frames: ``{frame: (result, skipped)}``.

        The one index read: emptiness is proven for the whole batch from one
        sketch mask, and every frame that is left is gathered and decoded in
        one :meth:`VideoIndex.results_for` call.  ``skipped=True`` means the
        sketch proved the covering range empty and the result was synthesized
        without decoding the segment.  Frames outside the indexed range are
        absent from the answer; the rest come back in input order.
        """
        frames = np.asarray(frame_indices, dtype=np.int64)
        frames = frames[(frames >= 0) & (frames < self.index.num_frames)]
        empty = self.index.sketch.provably_empty(frames)
        decoded = iter(self.index.results_for(frames[~empty]))
        served: dict[int, tuple[DetectionResult, bool]] = {}
        for frame, skipped in zip(frames.tolist(), empty.tolist(), strict=True):
            if skipped:
                result = DetectionResult(
                    frame_index=frame, timestamp=frame / self._fps, detections=[]
                )
            else:
                result = next(decoded)
            served[frame] = (result, skipped)
        return served

    def class_count_zero(
        self, frame_indices: np.ndarray | list[int], object_class: str
    ) -> np.ndarray:
        """Per frame: ``True`` when the class provably has count 0 there
        (never for a frame outside the indexed range)."""
        return self.index.sketch.class_absent(frame_indices, object_class)

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
