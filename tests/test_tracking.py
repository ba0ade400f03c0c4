"""Tests for motion-IoU entity resolution.

The columnar tracker must equal the frame-at-a-time reference
``oracle.reference_tracks`` exactly: the same track per row, the same track
order and the same track count.
"""

import numpy as np
import pytest

from repro.detection.base import Detection, DetectionResult
from repro.detection.columnar import DetectionBatch
from repro.optimizer.operators import TrackAggregator
from repro.tracking import iou_tracker
from repro.tracking.iou_tracker import IoUTracker
from repro.video.geometry import BoundingBox

from oracle import reference_tracks


def _frame(frame_index, boxes, object_class="car"):
    detections = [
        Detection(
            frame_index=frame_index,
            timestamp=frame_index / 30.0,
            object_class=object_class,
            box=box,
            confidence=0.9,
        )
        for box in boxes
    ]
    return DetectionResult(
        frame_index=frame_index, timestamp=frame_index / 30.0, detections=detections
    )


def _batch(results):
    return DetectionBatch.from_detections(results)


def _box(x, y=0.0, size=100.0):
    return BoundingBox(x, y, x + size, y + size)


class TestIoUTracker:
    def test_stationary_object_is_one_track(self):
        tracker = IoUTracker()
        results = [_frame(i, [_box(0.0)]) for i in range(5)]
        tracks = tracker.resolve(_batch(results))
        assert len(tracks) == 1
        assert tracks[0].length == 5

    def test_slow_object_stays_one_track(self):
        tracker = IoUTracker(iou_threshold=0.7)
        results = [_frame(i, [_box(i * 5.0)]) for i in range(10)]
        tracks = tracker.resolve(_batch(results))
        assert len(tracks) == 1

    def test_teleporting_object_splits_tracks(self):
        tracker = IoUTracker()
        results = [_frame(0, [_box(0.0)]), _frame(1, [_box(1000.0)])]
        tracks = tracker.resolve(_batch(results))
        assert len(tracks) == 2

    def test_two_parallel_objects(self):
        tracker = IoUTracker()
        results = [_frame(i, [_box(0.0), _box(500.0)]) for i in range(4)]
        tracks = tracker.resolve(_batch(results))
        assert len(tracks) == 2
        assert all(t.length == 4 for t in tracks)

    def test_different_classes_never_merge(self):
        tracker = IoUTracker()
        results = [
            DetectionResult(
                frame_index=i,
                timestamp=i / 30.0,
                detections=[
                    Detection(i, i / 30.0, "car", _box(0.0), 0.9),
                    Detection(i, i / 30.0, "bus", _box(0.0), 0.9),
                ],
            )
            for i in range(3)
        ]
        tracks = tracker.resolve(_batch(results))
        assert len(tracks) == 2
        assert {t.object_class for t in tracks} == {"car", "bus"}

    def test_gap_closes_track(self):
        tracker = IoUTracker(max_gap=1)
        results = [_frame(0, [_box(0.0)]), _frame(1, []), _frame(2, [_box(0.0)])]
        # Without bridging the empty frame the object re-enters as a new track,
        # matching the trackid semantics of Table 1.
        tracks = tracker.resolve(_batch(results))
        assert len(tracks) == 2

    def test_larger_gap_bridges_missing_frame(self):
        tracker = IoUTracker(max_gap=2)
        results = [_frame(0, [_box(0.0)]), _frame(1, []), _frame(2, [_box(0.0)])]
        tracks = tracker.resolve(_batch(results))
        assert len(tracks) == 1

    def test_tracking_groups_detections_without_writing_them(self):
        """The id lives on the group: the tracker's input may be a shared
        cache entry, so the detections it is handed are never stamped."""
        tracker = IoUTracker()
        results = [_frame(i, [_box(0.0)]) for i in range(3)]
        tracks = tracker.resolve(_batch(results))
        assert [t.track_id for t in tracks] == [0]
        assert [d.frame_index for d in tracks[0].detections] == [0, 1, 2]
        for result in results:
            for det in result.detections:
                assert det.track_id is None

    def test_every_detection_belongs_to_exactly_one_track(self):
        tracker = IoUTracker()
        results = [_frame(i, [_box(0.0), _box(300.0)]) for i in range(6)]
        tracks = tracker.resolve(_batch(results))
        total = sum(t.length for t in tracks)
        assert total == 12

    def test_resolve_keeps_no_state(self):
        tracker = IoUTracker()
        tracker.resolve(_batch([_frame(0, [_box(0.0)]), _frame(1, [_box(500.0)])]))
        tracks = tracker.resolve(_batch([_frame(0, [_box(0.0)])]))
        assert len(tracks) == 1
        assert tracks[0].track_id == 0

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            IoUTracker(iou_threshold=0.0)
        with pytest.raises(ValueError):
            IoUTracker(max_gap=0)

    @pytest.mark.parametrize("max_gap", [True, False, 1.5, 2.0, "2", None])
    def test_non_int_gap_is_rejected(self, max_gap):
        with pytest.raises(ValueError):
            IoUTracker(max_gap=max_gap)

    def test_numpy_int_gap_is_accepted(self):
        assert IoUTracker(max_gap=np.int64(3)).max_gap == 3

    @pytest.mark.parametrize(
        "kwargs", [{"max_gap": 0}, {"max_gap": True}, {"iou_threshold": 1.5}]
    )
    def test_aggregator_validates_when_built(self, kwargs):
        with pytest.raises(ValueError):
            TrackAggregator(**kwargs)

    def test_empty_input_has_no_tracks(self):
        assert IoUTracker().resolve(_batch([])) == []
        assert IoUTracker().resolve(_batch([_frame(0, []), _frame(1, [])])) == []

    def test_unsorted_input_is_taken_in_frame_order(self):
        results = [_frame(i, [_box(i * 5.0)]) for i in range(6)]
        tracks = IoUTracker().resolve(_batch(results[::-1]))
        assert len(tracks) == 1
        assert tracks[0].frames.tolist() == list(range(6))

    def test_real_video_track_count_is_reasonable(self, tiny_video, detector):
        """Tracks resolved from detections should be of the same order as ground truth."""
        results = [
            detector.detect(tiny_video, frame) for frame in range(tiny_video.num_frames)
        ]
        tracker = IoUTracker(iou_threshold=0.5, max_gap=3)
        tracks = tracker.resolve(_batch(results))
        car_tracks = [t for t in tracks if t.object_class == "car" and t.length >= 3]
        true_cars = tiny_video.distinct_count("car")
        assert car_tracks, "expected at least one resolved car track"
        # Fragmentation and misses allow a wide band, but not order-of-magnitude drift.
        assert 0.3 * true_cars <= len(car_tracks) <= 3.0 * true_cars + 5


class TestResolvedTrack:
    def test_start_end_frames(self):
        results = [_frame(5, [_box(0.0)]), _frame(9, [_box(0.0)])]
        (track,) = IoUTracker(max_gap=4).resolve(_batch(results))
        assert track.start_frame == 5
        assert track.end_frame == 9
        assert track.length == 2

    def test_detections_are_the_grouped_rows(self):
        results = [_frame(i, [_box(0.0), _box(500.0)]) for i in range(3)]
        tracks = IoUTracker().resolve(_batch(results))
        assert [t.detections for t in tracks] == [
            [result.detections[0] for result in results],
            [result.detections[1] for result in results],
        ]


def _row_tracks(tracks):
    """``(track_id, class, rows)`` of each track, rows numbered in frame order."""
    return [(t.track_id, t.object_class, t.rows.tolist()) for t in tracks]


def _reference_row_tracks(results, iou_threshold, max_gap):
    ordered = sorted(results, key=lambda r: r.frame_index)
    row_of = {
        id(det): row
        for row, det in enumerate(det for result in ordered for det in result.detections)
    }
    return [
        (track_id, object_class, [row_of[id(det)] for det in detections])
        for track_id, object_class, detections in reference_tracks(
            results, iou_threshold, max_gap
        )
    ]


def _random_case(rng):
    """A few objects drifting on a coarse grid, plus clutter.

    The grid makes IoU ties common (objects share or swap positions), and
    zero-area boxes, two classes, empty frames and subsampled or missing
    frame indices all occur.
    """
    step = int(rng.choice([1, 1, 2, 3, 5]))
    frames = np.arange(0, int(rng.integers(0, 13)) * step, step)
    frames = frames[rng.random(frames.size) > 0.15]
    objects = [
        [
            str(rng.choice(["car", "bus"], p=[0.7, 0.3])),
            float(rng.integers(0, 4)) * 10.0,
            float(rng.integers(0, 2)) * 10.0,
            float(rng.choice([0.0, 20.0, 30.0])),
            float(rng.choice([0.0, 20.0])),
        ]
        for _ in range(int(rng.integers(1, 6)))
    ]
    results = []
    for frame in frames.tolist():
        boxes = []
        for obj in objects:
            obj[1] += float(rng.integers(-1, 2)) * 10.0
            if rng.random() < 0.8:
                boxes.append(tuple(obj))
        for _ in range(int(rng.integers(0, 2))):
            x, y = float(rng.integers(0, 7)) * 10.0, float(rng.integers(0, 3)) * 10.0
            boxes.append((str(rng.choice(["car", "bus"])), x, y, 20.0, 20.0))
        order = rng.permutation(len(boxes))
        detections = [
            Detection(
                frame_index=frame,
                timestamp=frame / 30.0,
                object_class=boxes[i][0],
                box=BoundingBox(boxes[i][1], boxes[i][2], boxes[i][1] + boxes[i][3],
                                boxes[i][2] + boxes[i][4]),
                confidence=0.9,
            )
            for i in order.tolist()
        ]
        results.append(
            DetectionResult(frame_index=frame, timestamp=frame / 30.0, detections=detections)
        )
    if rng.random() < 0.2:
        rng.shuffle(results)
    return results


def _has_iou_tie(results, threshold):
    """Whether two same-class candidate pairs of consecutive frames tie."""
    ordered = sorted(results, key=lambda r: r.frame_index)
    for older, newer in zip(ordered, ordered[1:]):
        ious = [
            new.box.iou(old.box)
            for new in newer.detections
            for old in older.detections
            if new.object_class == old.object_class
        ]
        ious = [iou for iou in ious if iou >= threshold]
        if len(ious) != len(set(ious)):
            return True
    return False


class TestAgainstReference:
    CASES = 2400

    def test_random_cases_match_the_reference(self):
        rng = np.random.default_rng(20261017)
        multi_track_cases = tie_cases = 0
        for case in range(self.CASES):
            results = _random_case(rng)
            max_gap = int(rng.integers(1, 6))
            threshold = float(rng.choice([0.3, 0.5, 0.7, 1.0]))
            tracks = IoUTracker(iou_threshold=threshold, max_gap=max_gap).resolve(_batch(results))
            expected = _reference_row_tracks(results, threshold, max_gap)
            assert _row_tracks(tracks) == expected, (case, threshold, max_gap)
            multi_track_cases += any(len(rows) > 1 for _, _, rows in expected)
            tie_cases += _has_iou_tie(results, threshold)
        # The grid must actually produce matches and tied candidates.
        assert multi_track_cases > self.CASES // 4
        assert tie_cases > self.CASES // 20

    def test_pairs_scored_in_small_steps_match_the_reference(self, monkeypatch):
        """A crowded scene's candidate pairs are scored a bounded step at a
        time; tiny steps must not change a single track."""
        monkeypatch.setattr(iou_tracker, "_PAIRS_PER_STEP", 3)
        rng = np.random.default_rng(11)
        for case in range(300):
            results = _random_case(rng)
            max_gap = int(rng.integers(1, 6))
            tracks = IoUTracker(iou_threshold=0.3, max_gap=max_gap).resolve(_batch(results))
            expected = _reference_row_tracks(results, 0.3, max_gap)
            assert _row_tracks(tracks) == expected, case

    @pytest.mark.parametrize("threshold, step", [(0.7, 1), (0.3, 5)])
    def test_detector_output_matches_the_reference(self, tiny_video, detector, threshold, step):
        """The two configurations the plans run: 0.7 over every frame, and
        0.3 with ``max_gap`` = step over subsampled frames."""
        frames = np.arange(0, tiny_video.num_frames, step)
        batch = detector.detect_many(tiny_video, frames)
        tracks = IoUTracker(iou_threshold=threshold, max_gap=step).resolve(batch)
        expected = _reference_row_tracks(list(batch), threshold, step)
        assert len(expected) > 5
        assert any(len(rows) > 3 for _, _, rows in expected)
        assert _row_tracks(tracks) == expected
