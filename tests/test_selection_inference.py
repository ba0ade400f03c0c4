"""Tests for filter inference from selection query specs."""

import numpy as np
import pytest

from repro.frameql.analyzer import analyze
from repro.frameql.parser import parse
from repro.selection.inference import FilterInferenceInputs, infer_selection_plan
from repro.video.frame_batch import FrameBatch


def _selection_spec(text):
    return analyze(parse(text))


@pytest.fixture(scope="module")
def inference_inputs(tiny_labeled_set):
    """Inference inputs for a red-bus query over the tiny labeled set."""
    heldout = tiny_labeled_set.heldout_recorded
    positives = np.zeros(heldout.num_frames, dtype=bool)
    for frame in range(heldout.num_frames):
        for det in heldout.result(frame).detections:
            if det.object_class == "bus" and det.color_name == "red":
                positives[frame] = True
                break
    return FilterInferenceInputs(labeled=tiny_labeled_set, heldout_positive_mask=positives)


class TestTemporalInference:
    def test_track_duration_implies_subsampling(self, tiny_video, inference_inputs, fast_training_config):
        spec = _selection_spec(
            "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5 "
            "GROUP BY trackid HAVING COUNT(*) > 15"
        )
        plan = infer_selection_plan(
            spec, tiny_video, inference_inputs,
            training_config=fast_training_config,
            enabled_filter_classes={"temporal"},
        )
        assert plan.filter_classes() == ["temporal"]
        # min_track_frames is 16, so the subsample step is (16 - 1) // 2 = 7.
        assert plan.filters[0].subsample_step == 7

    def test_time_range_predicate(self, tiny_video, inference_inputs, fast_training_config):
        spec = _selection_spec(
            "SELECT * FROM tiny WHERE class = 'bus' AND timestamp >= 2 AND timestamp < 5"
        )
        plan = infer_selection_plan(
            spec, tiny_video, inference_inputs,
            training_config=fast_training_config,
            enabled_filter_classes={"temporal"},
        )
        temporal = plan.filters[0]
        assert temporal.start_frame == tiny_video.frame_of_timestamp(2.0)
        assert temporal.end_frame == tiny_video.frame_of_timestamp(5.0)

    def test_no_temporal_constraint_no_filter(self, tiny_video, inference_inputs, fast_training_config):
        spec = _selection_spec("SELECT * FROM tiny WHERE class = 'bus'")
        plan = infer_selection_plan(
            spec, tiny_video, inference_inputs,
            training_config=fast_training_config,
            enabled_filter_classes={"temporal"},
        )
        assert plan.filters == []


class TestSpatialInference:
    def test_xmax_constraint_reduces_cost(self, tiny_video, inference_inputs, fast_training_config):
        spec = _selection_spec("SELECT * FROM tiny WHERE class = 'bus' AND xmax(mask) < 640")
        plan = infer_selection_plan(
            spec, tiny_video, inference_inputs,
            training_config=fast_training_config,
            enabled_filter_classes={"spatial"},
        )
        assert plan.filter_classes() == ["spatial"]
        assert plan.detection_cost_scale == pytest.approx(0.5)

    def test_no_spatial_constraint_no_filter(self, tiny_video, inference_inputs, fast_training_config):
        spec = _selection_spec("SELECT * FROM tiny WHERE class = 'bus'")
        plan = infer_selection_plan(
            spec, tiny_video, inference_inputs,
            training_config=fast_training_config,
            enabled_filter_classes={"spatial"},
        )
        assert plan.filters == []


class TestContentAndLabelInference:
    def test_redness_predicate_yields_content_filter(
        self, tiny_video, inference_inputs, fast_training_config
    ):
        if not inference_inputs.heldout_positive_mask.any():
            pytest.skip("no red buses on the tiny held-out day")
        spec = _selection_spec(
            "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5"
        )
        plan = infer_selection_plan(
            spec, tiny_video, inference_inputs,
            training_config=fast_training_config,
            enabled_filter_classes={"content"},
        )
        # A content filter is only kept when it discards held-out frames, so
        # either it is absent (not useful) or it must be calibrated sensibly.
        for filter_ in plan.filters:
            assert filter_.filter_class == "content"
            assert filter_.estimated_selectivity < 1.0

    def test_label_filter_trained_and_calibrated(
        self, tiny_video, inference_inputs, fast_training_config
    ):
        spec = _selection_spec(
            "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5"
        )
        plan = infer_selection_plan(
            spec, tiny_video, inference_inputs,
            training_config=fast_training_config,
            enabled_filter_classes={"label"},
        )
        # The label filter is kept only when its no-false-negative threshold
        # actually discards frames on the tiny held-out day; either way the
        # plan may contain nothing but label filters, and any kept filter must
        # genuinely prune.
        assert set(plan.filter_classes()) <= {"label"}
        for filter_ in plan.filters:
            assert filter_.estimated_selectivity < 1.0
            assert filter_.model.is_trained

    def test_no_false_negatives_on_heldout(
        self, tiny_video, tiny_labeled_set, inference_inputs, fast_training_config
    ):
        """Filters calibrated for no false negatives must pass every held-out positive."""
        if not inference_inputs.heldout_positive_mask.any():
            pytest.skip("no red buses on the tiny held-out day")
        spec = _selection_spec(
            "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5"
        )
        plan = infer_selection_plan(
            spec, tiny_video, inference_inputs,
            training_config=fast_training_config,
            enabled_filter_classes={"content", "label"},
        )
        positives = np.nonzero(inference_inputs.heldout_positive_mask)[0]
        survivors = plan.apply_batch(
            FrameBatch(tiny_labeled_set.heldout_video)
        ).indices
        assert set(positives.tolist()) <= set(survivors.tolist())

    def test_full_inference_combines_filter_classes(
        self, tiny_video, inference_inputs, fast_training_config
    ):
        spec = _selection_spec(
            "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5 "
            "AND area(mask) > 100000 GROUP BY trackid HAVING COUNT(*) > 15"
        )
        plan = infer_selection_plan(
            spec, tiny_video, inference_inputs, training_config=fast_training_config
        )
        classes = set(plan.filter_classes())
        # The duration constraint always yields a temporal filter; statistical
        # filters (content/label) are included only when they can discard
        # held-out frames without false negatives.
        assert "temporal" in classes
        assert classes <= {"temporal", "content", "label"}
