"""Tests for the synthetic video generator."""

import numpy as np
import pytest

from repro.video.synthetic import (
    FEATURE_DIM,
    SyntheticVideo,
    Track,
    VideoSpec,
)
from tests.conftest import make_video_spec


class TestTrack:
    def _track(self) -> Track:
        return Track(
            track_id=1,
            object_class="car",
            start_frame=10,
            end_frame=20,
            start_x=100.0,
            start_y=200.0,
            velocity_x=2.0,
            velocity_y=-1.0,
            width=40.0,
            height=30.0,
            color_name="red",
            color=(200.0, 40.0, 40.0),
        )

    def test_duration(self):
        assert self._track().duration == 10

    def test_box_at_start(self):
        box = self._track().box_at(10)
        assert box.center.x == pytest.approx(100.0)
        assert box.center.y == pytest.approx(200.0)

    def test_box_moves_with_velocity(self):
        box = self._track().box_at(15)
        assert box.center.x == pytest.approx(110.0)
        assert box.center.y == pytest.approx(195.0)

    def test_box_at_outside_range_raises(self):
        with pytest.raises(ValueError):
            self._track().box_at(25)
        with pytest.raises(ValueError):
            self._track().box_at(9)


class TestGeneration:
    def test_generation_is_deterministic(self):
        spec = make_video_spec(num_frames=200)
        a = SyntheticVideo.generate(spec)
        b = SyntheticVideo.generate(spec)
        assert len(a.tracks) == len(b.tracks)
        assert [t.start_frame for t in a.tracks] == [t.start_frame for t in b.tracks]

    def test_different_seeds_give_different_videos(self):
        a = SyntheticVideo.generate(make_video_spec(seed=1))
        b = SyntheticVideo.generate(make_video_spec(seed=2))
        assert [t.start_frame for t in a.tracks] != [t.start_frame for t in b.tracks]

    def test_tracks_within_frame_range(self, tiny_video):
        for track in tiny_video.tracks:
            assert 0 <= track.start_frame < track.end_frame <= tiny_video.num_frames

    def test_classes_match_spec(self, tiny_video):
        classes = {t.object_class for t in tiny_video.tracks}
        assert classes <= {"car", "bus"}

    def test_empty_class_video(self):
        spec = VideoSpec(
            name="empty",
            width=100,
            height=100,
            fps=30.0,
            num_frames=50,
            object_classes=(),
            seed=0,
        )
        video = SyntheticVideo.generate(spec)
        assert video.tracks == []
        assert video.objects_at(0) == []
        assert video.class_counts("car").sum() == 0


class TestFrameAccess:
    def test_objects_at_matches_class_counts(self, tiny_video):
        counts = tiny_video.class_counts("car")
        for frame_index in (0, 50, 123, tiny_video.num_frames - 1):
            objects = tiny_video.objects_at(frame_index)
            cars = sum(1 for o in objects if o.object_class == "car")
            assert cars == counts[frame_index]

    def test_get_frame_fields(self, tiny_video):
        frame = tiny_video.get_frame(10)
        assert frame.index == 10
        assert frame.timestamp == pytest.approx(10 / tiny_video.fps)
        assert frame.width == tiny_video.spec.width

    def test_get_frame_with_features(self, tiny_video):
        frame = tiny_video.get_frame(5, with_features=True)
        assert frame.features is not None
        assert frame.features.shape == (FEATURE_DIM,)

    def test_out_of_range_frame_raises(self, tiny_video):
        with pytest.raises(IndexError):
            tiny_video.get_frame(tiny_video.num_frames)
        with pytest.raises(IndexError):
            tiny_video.objects_at(-1)

    def test_timestamp_round_trip(self, tiny_video):
        assert tiny_video.frame_of_timestamp(tiny_video.timestamp_of(77)) == 77


class TestAggregateGroundTruth:
    def test_class_counts_shape(self, tiny_video):
        counts = tiny_video.class_counts("car")
        assert counts.shape == (tiny_video.num_frames,)
        assert counts.dtype == np.int64

    def test_occupancy_between_zero_and_one(self, tiny_video):
        assert 0.0 <= tiny_video.occupancy("car") <= 1.0

    def test_distinct_count_equals_track_count(self, tiny_video):
        expected = sum(1 for t in tiny_video.tracks if t.object_class == "bus")
        assert tiny_video.distinct_count("bus") == expected

    def test_max_count_is_max_of_counts(self, tiny_video):
        assert tiny_video.max_count("car") == int(tiny_video.class_counts("car").max())

    def test_mean_duration_positive_when_tracks_exist(self, tiny_video):
        if tiny_video.distinct_count("car") > 0:
            assert tiny_video.mean_duration_seconds("car") > 0.0

    def test_unknown_class_counts_are_zero(self, tiny_video):
        assert tiny_video.class_counts("zebra").sum() == 0
        assert tiny_video.occupancy("zebra") == 0.0


class TestFeatures:
    def test_feature_shape(self, tiny_video):
        features = tiny_video.frame_features([0, 1, 2])
        assert features.shape == (3, FEATURE_DIM)

    def test_features_deterministic(self, tiny_video):
        a = tiny_video.frame_features([10, 20])
        b = tiny_video.frame_features([10, 20])
        np.testing.assert_allclose(a, b)

    def test_features_differ_across_frames(self, tiny_video):
        # Pick an occupied frame and an empty one; they should differ.
        counts = tiny_video.class_counts("car") + tiny_video.class_counts("bus")
        occupied = int(np.argmax(counts))
        empty_candidates = np.nonzero(counts == 0)[0]
        if empty_candidates.size == 0:
            pytest.skip("no empty frames in the tiny video")
        empty = int(empty_candidates[0])
        features = tiny_video.frame_features([occupied, empty])
        assert not np.allclose(features[0], features[1])

    def test_all_features_is_one_read_only_view_of_the_memo(self):
        video = SyntheticVideo.generate(make_video_spec(num_frames=120))
        partial = video.frame_features([5, 7])  # some rows filled first
        full = video.all_features()
        assert full is video.all_features()
        assert not full.flags.writeable
        with pytest.raises(ValueError):
            full[0, 0] = 1.0
        np.testing.assert_array_equal(full[[5, 7]], partial)
        fresh = SyntheticVideo.generate(make_video_spec(num_frames=120))
        np.testing.assert_array_equal(full, fresh.frame_features(np.arange(120)))

    def test_occupancy_feature_correlates_with_counts(self, tiny_video):
        counts = (
            tiny_video.class_counts("car") + tiny_video.class_counts("bus")
        ).astype(float)
        features = tiny_video.frame_features(np.arange(tiny_video.num_frames))
        # The third-from-last feature is the global occupancy proxy.
        correlation = np.corrcoef(features[:, -3], counts)[0, 1]
        assert correlation > 0.5


class TestSlicing:
    def test_slice_length(self, tiny_video):
        part = tiny_video.slice(100, 200)
        assert part.num_frames == 100

    def test_slice_rebases_frames(self, tiny_video):
        part = tiny_video.slice(100, 200)
        for track in part.tracks:
            assert 0 <= track.start_frame < track.end_frame <= 100

    def test_slice_preserves_counts(self, tiny_video):
        part = tiny_video.slice(100, 200)
        full_counts = tiny_video.class_counts("car")[100:200]
        np.testing.assert_array_equal(part.class_counts("car"), full_counts)

    def test_invalid_slice_raises(self, tiny_video):
        with pytest.raises(ValueError):
            tiny_video.slice(200, 100)
        with pytest.raises(ValueError):
            tiny_video.slice(0, tiny_video.num_frames + 1)

    def test_slice_name(self, tiny_video):
        assert tiny_video.slice(0, 10, name="clip").spec.name == "clip"
