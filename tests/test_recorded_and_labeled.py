"""Tests for the detector recording and the labeled set."""

import numpy as np
import pytest

from repro.core.labeled_set import LabeledSet
from repro.core.recorded import RecordedDetections
from repro.video.synthetic import FEATURE_DIM


class TestRecordedDetections:
    def test_num_frames(self, tiny_recorded, tiny_video):
        assert tiny_recorded.num_frames == tiny_video.num_frames

    def test_counts_match_results(self, tiny_recorded):
        counts = tiny_recorded.counts("car")
        for frame in (0, 10, 100):
            assert counts[frame] == tiny_recorded.result(frame).count("car")

    def test_result_free_without_ledger(self, tiny_recorded):
        # Reading the recording without a ledger is the harness's ground-truth
        # access and must not affect any measurement.
        tiny_recorded.result(0)

    def test_presence_is_counts_positive(self, tiny_recorded):
        np.testing.assert_array_equal(
            tiny_recorded.presence("car"), tiny_recorded.counts("car") > 0
        )

    def test_satisfies_min_counts(self, tiny_recorded):
        counts = tiny_recorded.counts("car")
        frame = int(np.argmax(counts))
        assert tiny_recorded.satisfies_min_counts(frame, {"car": int(counts[frame])})
        assert not tiny_recorded.satisfies_min_counts(
            frame, {"car": int(counts[frame]) + 1}
        )

    def test_frames_satisfying(self, tiny_recorded):
        frames = tiny_recorded.frames_satisfying({"car": 1})
        np.testing.assert_array_equal(frames, np.nonzero(tiny_recorded.counts("car") >= 1)[0])

    def test_mean_count(self, tiny_recorded):
        assert tiny_recorded.mean_count("car") == pytest.approx(
            float(tiny_recorded.counts("car").mean())
        )

    def test_length_mismatch_rejected(self, tiny_video, detector):
        with pytest.raises(ValueError):
            RecordedDetections(tiny_video, detector, results=[])

    def test_counts_cached(self, tiny_recorded):
        a = tiny_recorded.counts("car")
        b = tiny_recorded.counts("car")
        assert a is b


class TestLabeledSet:
    def test_build_runs_detector_over_both_days(self, tiny_labeled_set):
        assert (
            tiny_labeled_set.train_recorded.num_frames
            == tiny_labeled_set.train_video.num_frames
        )
        assert (
            tiny_labeled_set.heldout_recorded.num_frames
            == tiny_labeled_set.heldout_video.num_frames
        )

    def test_features_shape(self, tiny_labeled_set):
        assert tiny_labeled_set.train_features.shape == (
            tiny_labeled_set.train_video.num_frames,
            FEATURE_DIM,
        )
        assert tiny_labeled_set.heldout_features.shape == (
            tiny_labeled_set.heldout_video.num_frames,
            FEATURE_DIM,
        )

    def test_features_cached(self, tiny_labeled_set):
        assert tiny_labeled_set.train_features is tiny_labeled_set.train_features
        assert tiny_labeled_set.heldout_features is (
            tiny_labeled_set.heldout_video.all_features()
        )
        assert not tiny_labeled_set.train_features.flags.writeable

    def test_counts_and_presence_consistent(self, tiny_labeled_set):
        counts = tiny_labeled_set.train_counts("car")
        presence = tiny_labeled_set.train_presence("car")
        np.testing.assert_array_equal(presence, counts > 0)

    def test_training_positives(self, tiny_labeled_set):
        assert tiny_labeled_set.training_positives("car") == int(
            tiny_labeled_set.train_presence("car").sum()
        )

    def test_training_instances_conjunction(self, tiny_labeled_set):
        single = tiny_labeled_set.training_instances({"car": 1})
        joint = tiny_labeled_set.training_instances({"car": 1, "bus": 1})
        assert joint <= single

    def test_build_classmethod(self, tiny_train_video, tiny_heldout_video, detector):
        labeled = LabeledSet.build(
            tiny_train_video.slice(0, 50), tiny_heldout_video.slice(0, 50), detector
        )
        assert labeled.train_recorded.num_frames == 50
