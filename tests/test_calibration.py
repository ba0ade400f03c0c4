"""Tests for threshold calibration and the batch-means error bound."""

import math

import numpy as np
import pytest

from repro.specialization.calibration import (
    batch_means_error_bound,
    calibrate_no_false_negative_threshold,
    integrated_autocorrelation_time,
)


class TestNoFalseNegativeCalibration:
    def test_zero_false_negatives_by_construction(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, size=500)
        positives = scores > 0.7  # positives have high scores
        calibration = calibrate_no_false_negative_threshold(scores, positives)
        assert calibration.false_negatives == 0
        passed = scores >= calibration.threshold
        assert np.all(passed[positives])

    def test_threshold_discards_some_negatives(self):
        scores = np.concatenate([np.full(90, 0.1), np.full(10, 0.9)])
        positives = np.concatenate([np.zeros(90, dtype=bool), np.ones(10, dtype=bool)])
        calibration = calibrate_no_false_negative_threshold(scores, positives)
        assert calibration.selectivity < 0.2
        assert calibration.positives == 10

    def test_no_positives_passes_everything(self):
        scores = np.array([0.1, 0.5, 0.9])
        positives = np.zeros(3, dtype=bool)
        calibration = calibrate_no_false_negative_threshold(scores, positives)
        assert calibration.selectivity == 1.0
        assert calibration.threshold == float("-inf")

    def test_empty_input(self):
        calibration = calibrate_no_false_negative_threshold(
            np.array([]), np.array([], dtype=bool)
        )
        assert calibration.selectivity == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            calibrate_no_false_negative_threshold(
                np.array([1.0, 2.0]), np.array([True])
            )

    def test_overlapping_distributions_keep_all_positives(self):
        rng = np.random.default_rng(1)
        scores = np.concatenate(
            [rng.normal(0.0, 1.0, 300), rng.normal(1.0, 1.0, 50)]
        )
        positives = np.concatenate([np.zeros(300, dtype=bool), np.ones(50, dtype=bool)])
        calibration = calibrate_no_false_negative_threshold(scores, positives)
        assert calibration.false_negatives == 0
        # With heavy overlap the filter should be conservative, not aggressive.
        assert calibration.selectivity > 0.3


def ar1(n: int, rho: float, seed: int) -> np.ndarray:
    """A unit-variance AR(1) series: bursts of ``1 / (1 - rho)`` frames."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(1.0 - rho**2), size=n)
    series = np.empty(n)
    series[0] = rng.normal()
    for i in range(1, n):
        series[i] = rho * series[i - 1] + noise[i]
    return series


class TestBatchMeansErrorBound:
    def test_iid_residuals_give_the_clt_width(self):
        rng = np.random.default_rng(0)
        truths = rng.poisson(2.0, size=4000).astype(float)
        predictions = truths + rng.normal(0, 0.2, size=4000)
        bound = batch_means_error_bound(predictions, truths, 0.95)
        clt = 1.96 * 0.2 / math.sqrt(4000)
        assert clt < bound < 0.02
        assert integrated_autocorrelation_time(predictions - truths) < 1.5

    def test_biased_predictions_give_a_large_bound(self):
        rng = np.random.default_rng(0)
        truths = rng.poisson(2.0, size=2000).astype(float)
        bound = batch_means_error_bound(truths + 0.5, truths, 0.95)
        # A constant residual has no spread: the bound is the bias itself.
        assert bound == pytest.approx(0.5)
        noisy = truths + 0.5 + rng.normal(0.0, 0.2, size=2000)
        assert batch_means_error_bound(noisy, truths, 0.95) > 0.5

    def test_bursty_residuals_are_wider_than_iid_of_the_same_variance(self):
        n = 20_000
        bursty = ar1(n, rho=0.95, seed=1)
        iid = np.random.default_rng(1).normal(0.0, 1.0, size=n)
        zeros = np.zeros(n)
        assert integrated_autocorrelation_time(bursty) > 20.0
        assert batch_means_error_bound(bursty, zeros, 0.95) > 3.0 * (
            batch_means_error_bound(iid, zeros, 0.95)
        )

    @pytest.mark.parametrize("rho", [0.0, 0.9])
    def test_covers_an_unseen_days_error_without_being_vacuous(self, rho):
        # 200 (held-out, test) day pairs with a shared 0.05 bias: the bound
        # from the held-out day covers the test day's mean error at least
        # about 95% of the time, for i.i.d. and for bursty residuals ...
        n = 2000
        zeros = np.zeros(n)
        days = [(ar1(n, rho, seed=2 * day), ar1(n, rho, seed=2 * day + 1)) for day in range(200)]
        bounds = np.array([batch_means_error_bound(0.05 + h, zeros, 0.95) for h, _ in days])
        errors = np.array([abs(0.05 + t.mean()) for _, t in days])
        assert np.mean(errors <= bounds) >= 0.9
        # ... and is not much wider than the quantile that knows the true
        # standard error of a day's mean, sqrt(tau / n) for unit variance.
        tau = (1.0 + rho) / (1.0 - rho)
        oracle = 1.96 * math.sqrt(2.0 * tau / n)
        assert np.median(bounds) < 0.05 + 1.5 * oracle

    def test_higher_confidence_widens_the_bound(self):
        residuals = ar1(5000, rho=0.5, seed=2)
        zeros = np.zeros_like(residuals)
        assert batch_means_error_bound(residuals, zeros, 0.99) > (
            batch_means_error_bound(residuals, zeros, 0.8)
        )

    def test_deterministic_and_draws_nothing(self):
        residuals = ar1(3000, rho=0.8, seed=3)
        zeros = np.zeros_like(residuals)
        state = np.random.get_state()
        first = batch_means_error_bound(residuals, zeros, 0.95)
        assert batch_means_error_bound(residuals.copy(), zeros, 0.95) == first
        assert np.random.get_state()[1].tolist() == state[1].tolist()

    def test_exact_predictions_bound_zero(self):
        truths = np.arange(100, dtype=float) % 3
        assert batch_means_error_bound(truths, truths, 0.95) == 0.0

    def test_too_few_frames_bound_nothing(self):
        assert batch_means_error_bound(np.array([1.0]), np.array([0.0]), 0.95) == math.inf

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            batch_means_error_bound(np.array([]), np.array([]), 0.95)
        with pytest.raises(ValueError):
            batch_means_error_bound(np.array([1.0]), np.array([1.0, 2.0]), 0.95)
        with pytest.raises(ValueError):
            batch_means_error_bound(np.array([1.0]), np.array([1.0]), 1.5)
