"""Per-range class presence/count sketches over persisted detections.

A :class:`RangeSketch` summarises the exact detector output of one video at a
configurable range granularity: for every ``range_size``-frame window it
records, per object class, how many frames contain the class, the summed
count, and the per-frame maximum, plus how many frames in the window contain
*any* detection.  Because the sketch is built from the same persisted
detections the index serves at query time, its guarantees are proofs, not
estimates:

* ``provably_empty`` / ``class_absent`` (one vectorised question per batch of
  frames) and ``fails_min_counts`` are exact — a ``True`` answer can never be
  contradicted by decoding the frame;
* ``range_presence_rate`` / ``range_event_rate`` follow the cost model's
  validated upper-bound contract: the returned rate is ``>=`` the true rate
  over any ``[start, end)`` window (exact when the window aligns with range
  boundaries), so a rate of ``0.0`` proves the window empty and pruning it
  can never change results.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.detection.base import DetectionResult
from repro.errors import ConfigurationError

#: Default number of frames summarised by one sketch range.
DEFAULT_RANGE_SIZE = 64

SKETCH_FORMAT = "range-sketch/v1"


@dataclass(frozen=True)
class RangeSketch:
    """Exact per-range class statistics with upper-bound window queries."""

    num_frames: int
    range_size: int
    class_table: tuple[str, ...]
    #: ``(num_ranges, num_classes)`` — frames in range containing the class.
    presence_frames: np.ndarray
    #: ``(num_ranges, num_classes)`` — summed per-frame counts of the class.
    total_count: np.ndarray
    #: ``(num_ranges, num_classes)`` — maximum per-frame count of the class.
    max_count: np.ndarray
    #: ``(num_ranges,)`` — frames in range containing any detection at all.
    occupied_frames: np.ndarray

    @classmethod
    def from_results(
        cls,
        results: Sequence[DetectionResult],
        num_frames: int,
        range_size: int = DEFAULT_RANGE_SIZE,
    ) -> RangeSketch:
        """Build the sketch from full-coverage, frame-ordered detections."""
        if range_size < 1:
            raise ConfigurationError(f"range_size must be >= 1, got {range_size}")
        if len(results) != num_frames:
            raise ConfigurationError(
                f"sketch needs one result per frame: got {len(results)} "
                f"results for {num_frames} frames"
            )
        names = sorted(
            {det.object_class for result in results for det in result.detections}
        )
        columns = {name: i for i, name in enumerate(names)}
        num_ranges = max(1, -(-num_frames // range_size))
        presence = np.zeros((num_ranges, len(names)), dtype=np.int64)
        total = np.zeros((num_ranges, len(names)), dtype=np.int64)
        peak = np.zeros((num_ranges, len(names)), dtype=np.int64)
        occupied = np.zeros(num_ranges, dtype=np.int64)
        for position, result in enumerate(results):
            if result.frame_index != position:
                raise ConfigurationError(
                    f"sketch input must be frame-ordered: result {position} "
                    f"covers frame {result.frame_index}"
                )
            range_index = position // range_size
            if not result.detections:
                continue
            occupied[range_index] += 1
            counts: dict[str, int] = {}
            for det in result.detections:
                counts[det.object_class] = counts.get(det.object_class, 0) + 1
            for name, count in counts.items():
                column = columns[name]
                presence[range_index, column] += 1
                total[range_index, column] += count
                if count > peak[range_index, column]:
                    peak[range_index, column] = count
        return cls(
            num_frames=num_frames,
            range_size=range_size,
            class_table=tuple(names),
            presence_frames=presence,
            total_count=total,
            max_count=peak,
            occupied_frames=occupied,
        )

    @property
    def num_ranges(self) -> int:
        """Number of summarised ranges."""
        return int(self.occupied_frames.shape[0])

    def range_bounds(self, range_index: int) -> tuple[int, int]:
        """The ``[start, end)`` frame window summarised by one range."""
        start = range_index * self.range_size
        return start, min(self.num_frames, start + self.range_size)

    def _column(self, object_class: str) -> int | None:
        try:
            return self.class_table.index(object_class)
        except ValueError:
            return None

    # -- exact per-frame proofs ------------------------------------------

    def _covered_ranges(self, frame_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which frames the sketch covers, and the range of each covered one."""
        frames = np.asarray(frame_indices, dtype=np.int64)
        covered = (frames >= 0) & (frames < self.num_frames)
        return covered, frames[covered] // self.range_size

    def provably_empty(self, frame_indices: np.ndarray) -> np.ndarray:
        """Per frame: ``True`` when no frame in its covering range has any
        detection.  A frame outside ``[0, num_frames)`` proves nothing."""
        proven, ranges = self._covered_ranges(frame_indices)
        proven[proven] = self.occupied_frames[ranges] == 0
        return proven

    def class_absent(self, frame_indices: np.ndarray, object_class: str) -> np.ndarray:
        """Per frame: ``True`` when the class provably has count 0 there.
        A frame outside ``[0, num_frames)`` proves nothing."""
        proven, ranges = self._covered_ranges(frame_indices)
        column = self._column(object_class)
        # No column: the class never appears anywhere in the indexed video.
        if column is not None:
            proven[proven] = self.total_count[ranges, column] == 0
        return proven

    def fails_min_counts(
        self, frame_index: int, min_counts: Mapping[str, int]
    ) -> bool:
        """``True`` when some class provably cannot reach its minimum."""
        range_index = frame_index // self.range_size
        for name, minimum in min_counts.items():
            if minimum <= 0:
                continue
            column = self._column(name)
            if column is None:
                return True
            if 0 <= range_index < self.num_ranges and (
                int(self.max_count[range_index, column]) < int(minimum)
            ):
                return True
        return False

    # -- upper-bound window rates (the sharder's contract) ---------------

    def _overlapped_ranges(self, start: int, end: int) -> range:
        first = start // self.range_size
        last = (end - 1) // self.range_size
        return range(first, min(last, self.num_ranges - 1) + 1)

    def range_presence_rate(self, object_class: str, start: int, end: int) -> float:
        """Upper bound on the fraction of ``[start, end)`` frames with the class."""
        start = max(0, int(start))
        end = min(self.num_frames, int(end))
        if end <= start:
            return 0.0
        column = self._column(object_class)
        if column is None:
            return 0.0
        bound = 0
        for range_index in self._overlapped_ranges(start, end):
            range_start, range_end = self.range_bounds(range_index)
            overlap = min(end, range_end) - max(start, range_start)
            bound += min(int(self.presence_frames[range_index, column]), overlap)
        return bound / (end - start)

    def range_event_rate(
        self, min_counts: Mapping[str, int], start: int, end: int
    ) -> float:
        """Upper bound on the fraction of frames satisfying all minimums.

        Per range, the number of frames with ``count(cls) >= m`` is bounded by
        ``min(presence_frames, total_count // m)`` (each qualifying frame
        contributes at least ``m`` to the total), and is 0 when the per-frame
        maximum never reaches ``m``.  The conjunction is bounded by the
        tightest per-class bound.
        """
        start = max(0, int(start))
        end = min(self.num_frames, int(end))
        if end <= start:
            return 0.0
        active = {name: int(m) for name, m in min_counts.items() if int(m) >= 1}
        if not active:
            return 1.0
        bound = 0
        for range_index in self._overlapped_ranges(start, end):
            range_start, range_end = self.range_bounds(range_index)
            overlap = min(end, range_end) - max(start, range_start)
            range_bound = overlap
            for name, minimum in active.items():
                column = self._column(name)
                if column is None:
                    range_bound = 0
                    break
                if int(self.max_count[range_index, column]) < minimum:
                    range_bound = 0
                    break
                class_bound = min(
                    int(self.presence_frames[range_index, column]),
                    int(self.total_count[range_index, column]) // minimum,
                )
                range_bound = min(range_bound, class_bound)
            bound += range_bound
        return bound / (end - start)

    # -- persistence ------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Columnar form for ``np.savez`` persistence."""
        return {
            "sketch_format": np.asarray(SKETCH_FORMAT),
            "num_frames": np.asarray(self.num_frames, dtype=np.int64),
            "range_size": np.asarray(self.range_size, dtype=np.int64),
            "class_table": np.asarray(self.class_table, dtype=np.str_),
            "presence_frames": self.presence_frames,
            "total_count": self.total_count,
            "max_count": self.max_count,
            "occupied_frames": self.occupied_frames,
        }

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, Any]) -> RangeSketch:
        """Rebuild from :meth:`to_arrays` output (or an ``NpzFile``)."""
        fmt = str(np.asarray(arrays["sketch_format"]))
        if fmt != SKETCH_FORMAT:
            raise ConfigurationError(
                f"not a range sketch: format {fmt!r} != {SKETCH_FORMAT!r}"
            )
        return cls(
            num_frames=int(np.asarray(arrays["num_frames"])),
            range_size=int(np.asarray(arrays["range_size"])),
            class_table=tuple(str(name) for name in np.asarray(arrays["class_table"])),
            presence_frames=np.asarray(arrays["presence_frames"], dtype=np.int64),
            total_count=np.asarray(arrays["total_count"], dtype=np.int64),
            max_count=np.asarray(arrays["max_count"], dtype=np.int64),
            occupied_frames=np.asarray(arrays["occupied_frames"], dtype=np.int64),
        )

    def describe(self) -> dict[str, Any]:
        """Summary used by ``BlazeIt.index_status()`` and the build CLI."""
        empty_ranges = int(np.count_nonzero(self.occupied_frames == 0))
        return {
            "num_frames": self.num_frames,
            "range_size": self.range_size,
            "num_ranges": self.num_ranges,
            "empty_ranges": empty_ranges,
            "classes": list(self.class_table),
        }


__all__ = ["DEFAULT_RANGE_SIZE", "RangeSketch"]
