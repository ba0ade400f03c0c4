"""Tests for motion-IoU entity resolution."""

import pytest

from repro.detection.base import Detection, DetectionResult
from repro.tracking.iou_tracker import IoUTracker
from repro.tracking.track import ResolvedTrack
from repro.video.geometry import BoundingBox


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


def _box(x, y=0.0, size=100.0):
    return BoundingBox(x, y, x + size, y + size)


class TestIoUTracker:
    def test_stationary_object_is_one_track(self):
        tracker = IoUTracker()
        results = [_frame(i, [_box(0.0)]) for i in range(5)]
        tracks = tracker.resolve(results)
        assert len(tracks) == 1
        assert tracks[0].length == 5

    def test_slow_object_stays_one_track(self):
        tracker = IoUTracker(iou_threshold=0.7)
        results = [_frame(i, [_box(i * 5.0)]) for i in range(10)]
        tracks = tracker.resolve(results)
        assert len(tracks) == 1

    def test_teleporting_object_splits_tracks(self):
        tracker = IoUTracker()
        results = [_frame(0, [_box(0.0)]), _frame(1, [_box(1000.0)])]
        tracks = tracker.resolve(results)
        assert len(tracks) == 2

    def test_two_parallel_objects(self):
        tracker = IoUTracker()
        results = [_frame(i, [_box(0.0), _box(500.0)]) for i in range(4)]
        tracks = tracker.resolve(results)
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
        tracks = tracker.resolve(results)
        assert len(tracks) == 2
        assert {t.object_class for t in tracks} == {"car", "bus"}

    def test_gap_closes_track(self):
        tracker = IoUTracker(max_gap=1)
        results = [_frame(0, [_box(0.0)]), _frame(1, []), _frame(2, [_box(0.0)])]
        # Without bridging the empty frame the object re-enters as a new track,
        # matching the trackid semantics of Table 1.
        tracks = tracker.resolve(results)
        assert len(tracks) == 2

    def test_larger_gap_bridges_missing_frame(self):
        tracker = IoUTracker(max_gap=2)
        results = [_frame(0, [_box(0.0)]), _frame(1, []), _frame(2, [_box(0.0)])]
        tracks = tracker.resolve(results)
        assert len(tracks) == 1

    def test_tracking_groups_detections_without_writing_them(self):
        """The id lives on the group: the tracker's input may be a shared
        cache entry, so the detections it is handed are never stamped."""
        tracker = IoUTracker()
        results = [_frame(i, [_box(0.0)]) for i in range(3)]
        tracks = tracker.resolve(results)
        assert [t.track_id for t in tracks] == [0]
        assert [d.frame_index for d in tracks[0].detections] == [0, 1, 2]
        for result in results:
            for det in result.detections:
                assert det.track_id is None

    def test_every_detection_belongs_to_exactly_one_track(self):
        tracker = IoUTracker()
        results = [_frame(i, [_box(0.0), _box(300.0)]) for i in range(6)]
        tracks = tracker.resolve(results)
        total = sum(t.length for t in tracks)
        assert total == 12

    def test_reset_clears_state(self):
        tracker = IoUTracker()
        tracker.resolve([_frame(0, [_box(0.0)])])
        tracker.reset()
        tracks = tracker.resolve([_frame(0, [_box(0.0)])])
        assert len(tracks) == 1
        assert tracks[0].track_id == 0

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            IoUTracker(iou_threshold=0.0)
        with pytest.raises(ValueError):
            IoUTracker(max_gap=0)

    def test_real_video_track_count_is_reasonable(self, tiny_video, detector):
        """Tracks resolved from detections should be of the same order as ground truth."""
        results = [
            detector.detect(tiny_video, frame) for frame in range(tiny_video.num_frames)
        ]
        tracker = IoUTracker(iou_threshold=0.5, max_gap=3)
        tracks = tracker.resolve(results)
        car_tracks = [t for t in tracks if t.object_class == "car" and t.length >= 3]
        true_cars = tiny_video.distinct_count("car")
        assert car_tracks, "expected at least one resolved car track"
        # Fragmentation and misses allow a wide band, but not order-of-magnitude drift.
        assert 0.3 * true_cars <= len(car_tracks) <= 3.0 * true_cars + 5


class TestResolvedTrack:
    def test_start_end_frames(self):
        track = ResolvedTrack(track_id=0, object_class="car")
        track.add(Detection(5, 0.1, "car", _box(0.0), 0.9))
        track.add(Detection(9, 0.3, "car", _box(0.0), 0.9))
        assert track.start_frame == 5
        assert track.end_frame == 9
        assert track.length == 2
