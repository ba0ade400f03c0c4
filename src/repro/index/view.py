"""Query-time adapter over one committed index generation.

:class:`IndexView` is what an :class:`~repro.core.context.ExecutionContext`
holds: a thin, stateless façade over a :class:`~repro.index.store.VideoIndex`
that serves exact detector output without charging the detector.  What was
served or skipped is counted where every other source is counted — in the
caller's :class:`~repro.metrics.runtime.ExecutionLedger` — so the view keeps
no counters and needs no lock.

A read is one call per batch: :meth:`IndexView.get` takes every frame the
earlier tiers of the source cascade left over, settles the two serving modes
for all of them at once, and answers with one ``DetectionBatch`` of the
frames it covers plus a mask of the skipped ones.  Both modes are provably
identical to running the detector:

* **hit** — the frame's range contains detections somewhere, so the frame is
  decoded from the memory-mapped segment, together with every other hit of
  the batch (:meth:`VideoIndex.results_for`: one gather and one decode per
  segment; persisted detector output is exact);
* **skip** — the range sketch proves the whole range empty, so the frame
  is synthesized with no detections without touching the segment
  (``timestamp = frame / fps`` matches ``SyntheticVideo.timestamp_of``
  bit-for-bit).

The view also answers the sketch's exact per-frame proof
(:meth:`class_count_zero` — one mask per batch) so count scans can skip
provably-irrelevant frames without any decode — invariant I7: index
evidence is an upper bound, skipping never changes results.  Operators read
the sketch's other exact answers off :attr:`sketch` directly: a count over
every frame (``class_total``) and the scrubbing prune
(``fails_min_counts``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.detection.columnar import DetectionBatch, run_offsets
from repro.index.sketches import RangeSketch
from repro.index.store import PersistentIndex, VideoIndex


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
    ) -> tuple[DetectionBatch, np.ndarray]:
        """Serve a batch of frames: one batch of the frames the index covers,
        in input order, and per frame of it whether it was skipped.

        The one index read: emptiness is proven for the whole batch from one
        sketch mask, and every frame that is left is gathered and decoded in
        one :meth:`VideoIndex.results_for` call.  A skipped frame is one the
        sketch proved empty, synthesized without decoding the segment.
        Frames outside the indexed range are left out of the answer.
        """
        frames = np.asarray(frame_indices, dtype=np.int64)
        frames = frames[(frames >= 0) & (frames < self.index.num_frames)]
        empty = self.index.sketch.provably_empty(frames)
        decoded = self.index.results_for(frames[~empty])
        # A skipped frame holds no rows, so the decoded rows stay as they
        # are: only the frame columns gain the skipped frames.
        counts = np.zeros(frames.size, dtype=np.int64)
        counts[~empty] = np.diff(decoded.offsets)
        timestamp = frames / self._fps
        timestamp[~empty] = decoded.timestamp
        return (
            replace(decoded, frame_index=frames, timestamp=timestamp, offsets=run_offsets(counts)),
            empty,
        )

    def class_count_zero(
        self, frame_indices: np.ndarray | list[int], object_class: str
    ) -> np.ndarray:
        """Per frame: ``True`` when the class provably has count 0 there
        (never for a frame outside the indexed range)."""
        return self.index.sketch.class_absent(frame_indices, object_class)

    def close(self) -> None:
        """Release the underlying memory maps."""
        self.index.close()


class IndexViews:
    """The views an engine serves from its index store, one per video: the
    generation committed under the video's registered cache key, opened on
    first use.  It holds no reference to the engine, so the optimizer holds
    it too, to ask whether an index covers a video."""

    def __init__(self, store: PersistentIndex) -> None:
        self.store = store
        self.cache_keys: dict[str, str] = {}
        self.views: dict[str, IndexView] = {}

    def view(self, video_name: str) -> IndexView | None:
        """The video's view, or ``None`` when no committed generation
        matches its cache key."""
        cache_key = self.cache_keys.get(video_name)
        view = self.views.get(video_name)
        if cache_key is not None and (view is None or view.cache_key != cache_key):
            index = self.store.open(video_name, cache_key)
            if index is None:
                return None
            view = self.views[video_name] = IndexView(index)
        return view


__all__ = ["IndexView", "IndexViews"]
