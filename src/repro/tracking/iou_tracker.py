"""Motion-IoU entity resolution.

The paper's default implementation for computing ``trackid`` (Section 9):
given the objects in two consecutive frames, compute the pairwise IoU of each
object and call an object the same across consecutive frames when the IoU is
at least 0.7.  The tracker is greedy (highest IoU pair first), matches within
a class only, and closes a track when it goes unmatched for more than
``max_gap`` consecutive processed frames.

It runs on the detection columns: every same-class row pair at most
``max_gap`` frames apart is scored in one vectorised pass, with
``BoundingBox.iou``'s float arithmetic, and only the pairs that clear the
threshold enter the greedy pass.  Frame by frame, a pair is live when its
older row is still the last row of its track; live pairs are matched in
(-IoU, track id, row) order, which is the order a frame-at-a-time tracker
visits them in (its active tracks are kept in track-id order).  Track ids
grow with a track's first row, so the first row stands in for the id.
"""

from __future__ import annotations

import bisect
import numbers
from collections.abc import Iterator

import numpy as np

from repro.detection.columnar import DetectionBatch, concatenated_runs, run_offsets
from repro.tracking.track import ResolvedTrack

#: Candidate pairs scored per vectorised step, bounding the scratch memory
#: of a crowded scene.
_PAIRS_PER_STEP = 1 << 20


def _iou(box: np.ndarray, newer: np.ndarray, older: np.ndarray) -> np.ndarray:
    """``BoundingBox.iou`` of row pairs, ``box[newer]`` against ``box[older]``."""
    a = box[newer]
    b = box[older]
    overlap_w = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    overlap_h = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    overlap = np.where((overlap_w > 0) & (overlap_h > 0), overlap_w * overlap_h, 0.0)
    union = (
        (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
        + (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        - overlap
    )
    out = np.zeros(overlap.shape, dtype=np.float64)
    np.divide(overlap, union, out=out, where=union != 0)
    return out


class IoUTracker:
    """Greedy IoU matching across consecutive processed frames."""

    def __init__(self, iou_threshold: float = 0.7, max_gap: int = 1) -> None:
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
        if isinstance(max_gap, bool) or not isinstance(max_gap, numbers.Integral):
            raise ValueError(f"max_gap must be an int, got {max_gap!r}")
        if max_gap < 1:
            raise ValueError(f"max_gap must be >= 1, got {max_gap}")
        self.iou_threshold = iou_threshold
        self.max_gap = int(max_gap)

    def resolve(self, batch: DetectionBatch) -> list[ResolvedTrack]:
        """Every track of ``batch`` (its frames taken in frame order), by track id."""
        batch = batch.take(np.argsort(batch.frame_index, kind="stable"))
        first_row = self._first_rows(batch)
        n = first_row.size
        starts = first_row == np.arange(n)
        track_of_row = (np.cumsum(starts) - 1)[first_row]
        rows = np.argsort(track_of_row, kind="stable")
        offsets = run_offsets(np.bincount(track_of_row, minlength=int(starts.sum()))).tolist()
        classes = batch.class_codes()
        table = batch.class_table
        return [
            ResolvedTrack(
                track_id=track,
                object_class=table[classes[start]],
                batch=batch,
                rows=rows[offsets[track] : offsets[track + 1]],
            )
            for track, start in enumerate(np.flatnonzero(starts).tolist())
        ]

    def _first_rows(self, batch: DetectionBatch) -> np.ndarray:
        """The first row of every row's track."""
        first: list[int] = list(range(batch.class_code.size))
        position, older, newer, neg_iou = self._candidates(batch)
        # Every pair in visiting order, frame group by frame group: by
        # (-IoU, newer row, older row), which is the (-IoU, track id, newer,
        # older) order except where two pairs of a group tie on IoU exactly.
        order = np.lexsort((older, newer, neg_iou, position))
        position, older, newer, neg_iou = (
            position[order], older[order], newer[order], neg_iou[order]
        )
        tied = np.flatnonzero((position[1:] == position[:-1]) & (neg_iou[1:] == neg_iou[:-1]))
        # Group ``g`` is pairs ``bounds[g - 1]:bounds[g]``.  A group with a
        # tie is re-sorted when the pass reaches it, once the older rows'
        # track ids (``first``) are final.
        bounds = [0, *(np.flatnonzero(np.diff(position)) + 1).tolist(), position.size]
        tied_groups = sorted({bisect.bisect_right(bounds, k) for k in tied.tolist()})
        older_list = older.tolist()
        newer_list = newer.tolist()
        neg_iou_list = neg_iou.tolist()

        def visiting_order() -> Iterator[int]:
            done = 0
            for group in tied_groups:
                begin, end = bounds[group - 1], bounds[group]
                yield from range(done, begin)
                yield from sorted(
                    range(begin, end),
                    key=lambda k: (
                        neg_iou_list[k], first[older_list[k]], newer_list[k], older_list[k]
                    ),
                )
                done = end
            yield from range(done, position.size)

        is_last = [True] * len(first)
        for k in visiting_order():
            old_row = older_list[k]
            new_row = newer_list[k]
            # Unmatched so far: the old row still ends its track, and the
            # new row still starts its own (every track began earlier).
            if is_last[old_row] and first[new_row] == new_row:
                first[new_row] = first[old_row]
                is_last[old_row] = False
        return np.asarray(first, dtype=np.int64)

    def _candidates(
        self, batch: DetectionBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Same-class row pairs at most ``max_gap`` frames apart (older row in
        an earlier result) whose IoU clears the threshold: the newer row's
        frame position, both rows and the negated IoU, in no particular order."""
        n = batch.class_code.size
        empty = np.zeros(0, dtype=np.int64)
        if n == 0:
            return empty, empty, empty, np.zeros(0)
        position = batch.frame_rows(np.arange(n))
        frame = batch.frame_index[position]
        frame = frame - frame.min() + self.max_gap
        # Rows by class, each class in row order (so in frame order).
        order = np.argsort(batch.class_code, kind="stable")
        code = batch.class_code[order].astype(np.int64)
        frame_key = code * int(frame.max() + 1) + frame[order]
        position_key = code * (batch.num_frames + 1) + position[order]
        # Row ``order[k]`` pairs with the rows ``order[lo[k]:hi[k]]``.
        lo = np.searchsorted(frame_key, frame_key - self.max_gap, side="left")
        hi = np.searchsorted(position_key, position_key, side="left")
        counts = hi - lo
        ends = np.cumsum(counts)
        pieces = []
        step_start = 0
        while step_start < n:
            base = int(ends[step_start - 1]) if step_start else 0
            step_stop = max(
                int(np.searchsorted(ends, base + _PAIRS_PER_STEP, side="right")),
                step_start + 1,
            )
            step = slice(step_start, step_stop)
            newer = order[np.repeat(np.arange(step_start, step_stop), counts[step])]
            older = order[concatenated_runs(lo[step], counts[step])[0]]
            iou = _iou(batch.box, newer, older)
            keep = iou >= self.iou_threshold
            pieces.append((newer[keep], older[keep], iou[keep]))
            step_start = step_stop
        newer = np.concatenate([p[0] for p in pieces])
        older = np.concatenate([p[1] for p in pieces])
        neg_iou = -np.concatenate([p[2] for p in pieces])
        return position[newer], older, newer, neg_iou
