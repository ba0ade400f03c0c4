"""Tests for the selection filter classes and feature-level UDF scores."""

import numpy as np
import pytest

from repro.metrics.runtime import RuntimeLedger
from repro.selection.filters import (
    ContentFilter,
    LabelFilter,
    SpatialFilter,
    TemporalFilter,
    feature_level_score,
)
from repro.selection.plan import SelectionPlan
from repro.specialization.binary_model import BinaryPresenceModel
from repro.video.frame_batch import FrameBatch


def surviving(filter_, video, frames=None, ledger=None):
    """The frames a filter (or a whole plan) keeps, via its batch form."""
    return filter_.apply_batch(FrameBatch(video, frames), ledger).indices


class TestTemporalFilter:
    def test_subsampling(self, tiny_video):
        filter_ = TemporalFilter(subsample_step=7)
        survivors = surviving(filter_, tiny_video, np.arange(100))
        np.testing.assert_array_equal(survivors, np.arange(0, 100, 7))

    def test_time_range(self, tiny_video):
        filter_ = TemporalFilter(start_frame=10, end_frame=20)
        survivors = surviving(filter_, tiny_video, np.arange(100))
        np.testing.assert_array_equal(survivors, np.arange(10, 20))

    def test_combined_subsample_and_range(self, tiny_video):
        filter_ = TemporalFilter(subsample_step=5, start_frame=10, end_frame=40)
        survivors = surviving(filter_, tiny_video, np.arange(100))
        np.testing.assert_array_equal(survivors, [10, 15, 20, 25, 30, 35])

    def test_step_one_is_identity(self, tiny_video):
        filter_ = TemporalFilter(subsample_step=1)
        survivors = surviving(filter_, tiny_video, np.arange(50))
        assert survivors.size == 50

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            TemporalFilter(subsample_step=0)

    def test_no_cost_charged(self, tiny_video):
        ledger = RuntimeLedger()
        surviving(TemporalFilter(subsample_step=3), tiny_video, np.arange(30), ledger)
        assert ledger.total_seconds == 0.0


class TestSpatialFilter:
    def test_half_width_roi_halves_detection_cost(self):
        filter_ = SpatialFilter(
            roi_x_min=0, roi_y_min=0, roi_x_max=640, roi_y_max=720,
            frame_width=1280, frame_height=720,
        )
        assert filter_.detection_cost_scale == pytest.approx(0.5)

    def test_does_not_prune_frames(self, tiny_video):
        filter_ = SpatialFilter(
            roi_x_min=0, roi_y_min=0, roi_x_max=640, roi_y_max=720,
            frame_width=1280, frame_height=720,
        )
        survivors = surviving(filter_, tiny_video, np.arange(25))
        assert survivors.size == 25

    def test_invalid_roi(self):
        with pytest.raises(ValueError):
            SpatialFilter(
                roi_x_min=100, roi_y_min=0, roi_x_max=50, roi_y_max=720,
                frame_width=1280, frame_height=720,
            )

    def test_cost_scale_floor(self):
        filter_ = SpatialFilter(
            roi_x_min=0, roi_y_min=0, roi_x_max=10, roi_y_max=10,
            frame_width=1280, frame_height=720,
        )
        assert filter_.detection_cost_scale >= 0.05


class TestFeatureLevelScore:
    def test_red_frames_score_higher(self, tiny_video):
        """Frames with red objects should get a higher redness score."""
        red_frames = []
        white_frames = []
        for track in tiny_video.tracks:
            target = red_frames if track.color_name == "red" else white_frames
            target.append(track.start_frame)
        if not red_frames or not white_frames:
            pytest.skip("tiny video lacks colour diversity")
        features_red = tiny_video.frame_features(red_frames[:10])
        features_white = tiny_video.frame_features(white_frames[:10])
        assert feature_level_score(features_red, "redness").mean() > (
            feature_level_score(features_white, "redness").mean()
        )

    def test_unknown_udf_raises(self):
        with pytest.raises(ValueError):
            feature_level_score(np.zeros((1, 65)), "sharpness")

    def test_output_shape(self, tiny_video):
        features = tiny_video.frame_features([0, 1, 2])
        assert feature_level_score(features, "brightness").shape == (3,)


class TestContentFilter:
    def test_threshold_filters_frames(self, tiny_video):
        ledger = RuntimeLedger()
        filter_ = ContentFilter(udf_name="redness", threshold=1e9)
        survivors = surviving(filter_, tiny_video, np.arange(50), ledger)
        assert survivors.size == 0
        assert ledger.call_count("simple_filter") == 50

    def test_minus_infinity_threshold_keeps_all(self, tiny_video):
        filter_ = ContentFilter(udf_name="redness", threshold=float("-inf"))
        survivors = surviving(filter_, tiny_video, np.arange(50))
        assert survivors.size == 50

    def test_empty_input(self, tiny_video):
        filter_ = ContentFilter(udf_name="redness", threshold=0.0)
        assert surviving(filter_, tiny_video, np.array([], dtype=np.int64)).size == 0


class TestLabelFilter:
    def test_filters_with_trained_model(self, tiny_video, tiny_labeled_set, fast_training_config):
        model = BinaryPresenceModel("bus", training_config=fast_training_config)
        model.fit(
            tiny_labeled_set.train_features, tiny_labeled_set.train_presence("bus")
        )
        ledger = RuntimeLedger()
        loose = LabelFilter(model=model, threshold=0.0)
        strict = LabelFilter(model=model, threshold=1.1)
        assert surviving(loose, tiny_video, np.arange(40), ledger).size == 40
        assert surviving(strict, tiny_video, np.arange(40), ledger).size == 0
        assert ledger.call_count("specialized_nn") == 80


class TestSelectionPlan:
    def test_detection_cost_scale_multiplies(self):
        plan = SelectionPlan(
            filters=[
                SpatialFilter(0, 0, 640, 720, 1280, 720),
                TemporalFilter(subsample_step=2),
            ]
        )
        assert plan.detection_cost_scale == pytest.approx(0.5)

    def test_apply_chains_filters(self, tiny_video):
        plan = SelectionPlan(
            filters=[
                TemporalFilter(subsample_step=2),
                ContentFilter("redness", float("-inf")),
            ]
        )
        survivors = surviving(plan, tiny_video, np.arange(20))
        np.testing.assert_array_equal(survivors, np.arange(0, 20, 2))

    def test_apply_defaults_to_all_frames(self, tiny_video):
        plan = SelectionPlan(filters=[TemporalFilter(subsample_step=tiny_video.num_frames)])
        survivors = surviving(plan, tiny_video)
        assert survivors.size == 1

    def test_describe_mentions_filters(self):
        plan = SelectionPlan(filters=[TemporalFilter(subsample_step=2)])
        assert "temporal" in plan.describe()
        assert "no filters" in SelectionPlan().describe()

    def test_empty_survivor_short_circuits(self, tiny_video):
        ledger = RuntimeLedger()
        plan = SelectionPlan(
            filters=[
                ContentFilter("redness", 1e9),
                ContentFilter("blueness", float("-inf")),
            ]
        )
        surviving(plan, tiny_video, np.arange(30), ledger)
        # The second filter never runs because nothing survived the first.
        assert ledger.call_count("simple_filter") == 30
