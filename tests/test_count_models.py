"""Tests for the count / binary / multi-class specialized models."""

import numpy as np
import pytest

from repro.metrics.runtime import RuntimeLedger
from repro.specialization.binary_model import BinaryPresenceModel
from repro.specialization.count_model import CountSpecializedModel, select_num_classes
from repro.specialization.multiclass import MultiClassCountModel


class TestSelectNumClasses:
    def test_one_percent_rule(self):
        # Out of 1000 frames: 0 appears 88.4%, 1 appears 10%, 2 appears 1.1%
        # (qualifies), 3 appears 0.5% (does not qualify).
        counts = np.concatenate(
            [np.zeros(884), np.ones(100), np.full(11, 2), np.full(5, 3)]
        ).astype(int)
        assert select_num_classes(counts) == 3

    def test_minimum_two_classes(self):
        assert select_num_classes(np.zeros(100, dtype=int)) == 2

    def test_empty_raises(self):
        from repro.errors import InsufficientTrainingDataError

        with pytest.raises(InsufficientTrainingDataError):
            select_num_classes(np.array([], dtype=int))

    def test_all_high_counts(self):
        counts = np.full(100, 4)
        assert select_num_classes(counts) == 5


class TestCountSpecializedModel:
    @pytest.fixture(scope="class")
    def trained_model(self, tiny_labeled_set, fast_training_config):
        model = CountSpecializedModel(
            "car", training_config=fast_training_config, seed=0
        )
        model.fit(tiny_labeled_set.train_features, tiny_labeled_set.train_counts("car"))
        return model

    def test_is_trained(self, trained_model):
        assert trained_model.is_trained
        assert trained_model.num_classes >= 2

    def test_untrained_model_raises(self):
        model = CountSpecializedModel("car")
        with pytest.raises(RuntimeError):
            model.predict_counts(np.zeros((1, 65)))

    def test_predicted_counts_are_valid_classes(self, trained_model, tiny_labeled_set):
        predictions = trained_model.predict_counts(tiny_labeled_set.heldout_features)
        assert predictions.min() >= 0
        assert predictions.max() < trained_model.num_classes

    def test_predictions_correlate_with_truth(self, trained_model, tiny_labeled_set):
        predictions = trained_model.expected_counts(tiny_labeled_set.heldout_features)
        truth = tiny_labeled_set.heldout_counts("car").astype(float)
        if truth.std() == 0:
            pytest.skip("held-out day has constant count")
        assert np.corrcoef(predictions, truth)[0, 1] > 0.3

    def test_expected_counts_bounded_by_classes(self, trained_model, tiny_labeled_set):
        expected = trained_model.expected_counts(tiny_labeled_set.heldout_features)
        assert np.all(expected >= 0.0)
        assert np.all(expected <= trained_model.num_classes - 1 + 1e-9)

    def test_prob_at_least_monotone_in_threshold(self, trained_model, tiny_labeled_set):
        features = tiny_labeled_set.heldout_features[:50]
        p1 = trained_model.prob_at_least(features, 1)
        p2 = trained_model.prob_at_least(features, 2)
        assert np.all(p2 <= p1 + 1e-12)

    def test_prob_at_least_zero_is_one(self, trained_model, tiny_labeled_set):
        probs = trained_model.prob_at_least(tiny_labeled_set.heldout_features[:10], 0)
        np.testing.assert_allclose(probs, 1.0)

    def test_prob_at_least_negative_raises(self, trained_model, tiny_labeled_set):
        with pytest.raises(ValueError):
            trained_model.prob_at_least(tiny_labeled_set.heldout_features[:5], -1)

    def test_inference_charges_ledger(self, trained_model, tiny_labeled_set):
        ledger = RuntimeLedger()
        trained_model.predict_counts(tiny_labeled_set.heldout_features[:25], ledger)
        assert ledger.call_count("specialized_nn") == 25

    def test_mean_count_close_to_truth(self, trained_model, tiny_labeled_set):
        mean = trained_model.mean_count(tiny_labeled_set.heldout_features)
        truth = float(tiny_labeled_set.heldout_counts("car").mean())
        assert abs(mean - truth) < 0.5

    def test_mlp_variant_trains(self, tiny_labeled_set, fast_training_config):
        model = CountSpecializedModel(
            "car", model_type="mlp", training_config=fast_training_config
        )
        model.fit(tiny_labeled_set.train_features, tiny_labeled_set.train_counts("car"))
        assert model.is_trained

    def test_invalid_model_type(self):
        with pytest.raises(ValueError):
            CountSpecializedModel("car", model_type="transformer")

    def test_length_mismatch_raises(self, fast_training_config):
        model = CountSpecializedModel("car", training_config=fast_training_config)
        with pytest.raises(ValueError):
            model.fit(np.zeros((10, 5)), np.zeros(9, dtype=int))


class TestBinaryPresenceModel:
    @pytest.fixture(scope="class")
    def trained(self, tiny_labeled_set, fast_training_config):
        model = BinaryPresenceModel("car", training_config=fast_training_config)
        model.fit(
            tiny_labeled_set.train_features, tiny_labeled_set.train_presence("car")
        )
        return model

    def test_probabilities_in_range(self, trained, tiny_labeled_set):
        probs = trained.predict_proba_present(tiny_labeled_set.heldout_features)
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0)

    def test_predictions_separate_present_from_absent(self, trained, tiny_labeled_set):
        probs = trained.predict_proba_present(tiny_labeled_set.heldout_features)
        truth = tiny_labeled_set.heldout_presence("car")
        if truth.all() or not truth.any():
            pytest.skip("held-out day has constant presence")
        assert probs[truth].mean() > probs[~truth].mean()

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            BinaryPresenceModel("car").predict_proba_present(np.zeros((1, 65)))

    def test_invalid_model_type(self):
        with pytest.raises(ValueError):
            BinaryPresenceModel("car", model_type="resnet152")


class TestMultiClassCountModel:
    @pytest.fixture(scope="class")
    def trained(self, tiny_labeled_set, fast_training_config):
        return MultiClassCountModel(
            ["car", "bus"], training_config=fast_training_config
        ).fit_heads(tiny_labeled_set.fitted)

    def test_is_trained(self, trained):
        assert trained.is_trained

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            MultiClassCountModel([])

    def test_unknown_head_raises(self, trained):
        with pytest.raises(KeyError):
            trained.head("boat")

    def test_conjunction_score_shape(self, trained, tiny_labeled_set):
        scores = trained.score_conjunction(
            tiny_labeled_set.heldout_features, {"car": 1, "bus": 1}
        )
        assert scores.shape == (tiny_labeled_set.heldout_video.num_frames,)

    def test_conjunction_score_empty_raises(self, trained, tiny_labeled_set):
        with pytest.raises(ValueError):
            trained.score_conjunction(tiny_labeled_set.heldout_features, {})

    def test_conjunction_score_ranks_positive_frames_higher(
        self, trained, tiny_labeled_set
    ):
        """Frames that truly satisfy the conjunction should score above average."""
        features = tiny_labeled_set.heldout_features
        scores = trained.score_conjunction(features, {"car": 1, "bus": 1})
        car = tiny_labeled_set.heldout_counts("car") >= 1
        bus = tiny_labeled_set.heldout_counts("bus") >= 1
        positives = car & bus
        if positives.sum() < 3:
            pytest.skip("too few joint events on the tiny held-out day")
        assert scores[positives].mean() > scores[~positives].mean()

    def test_predict_counts_per_class(self, trained, tiny_labeled_set):
        counts = trained.predict_counts(tiny_labeled_set.heldout_features[:10])
        assert set(counts) == {"car", "bus"}
        assert all(v.shape == (10,) for v in counts.values())
