"""Tests for the AQP substrate: estimators, adaptive sampling, control variates."""

import numpy as np
import pytest

from repro.aqp.control_variates import control_variate_estimate
from repro.aqp.estimators import (
    clt_half_width,
    epsilon_net_minimum_samples,
    finite_population_correction,
    optimal_coefficient,
    sample_standard_deviation,
)
from repro.aqp.sampling import adaptive_sample


class TestEstimators:
    def test_sample_std_matches_numpy(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert sample_standard_deviation(values) == pytest.approx(np.std(values, ddof=1))

    def test_sample_std_small_samples(self):
        assert sample_standard_deviation(np.array([])) == 0.0
        assert sample_standard_deviation(np.array([5.0])) == 0.0

    def test_finite_population_correction_bounds(self):
        assert finite_population_correction(1, 1000) == pytest.approx(1.0, abs=1e-3)
        assert finite_population_correction(1000, 1000) == 0.0
        assert finite_population_correction(500, 1000) < 1.0

    def test_clt_half_width_shrinks_with_samples(self):
        wide = clt_half_width(1.0, 100, 0.95)
        narrow = clt_half_width(1.0, 10000, 0.95)
        assert narrow < wide

    def test_clt_half_width_grows_with_confidence(self):
        assert clt_half_width(1.0, 100, 0.99) > clt_half_width(1.0, 100, 0.9)

    def test_clt_half_width_invalid_confidence(self):
        with pytest.raises(ValueError):
            clt_half_width(1.0, 100, 1.5)

    def test_clt_half_width_zero_samples_is_infinite(self):
        assert clt_half_width(1.0, 0, 0.95) == float("inf")

    def test_epsilon_net_minimum(self):
        assert epsilon_net_minimum_samples(value_range=8.0, error_tolerance=0.1) == 80
        assert epsilon_net_minimum_samples(value_range=0.0, error_tolerance=0.1) == 1

    def test_epsilon_net_invalid_tolerance(self):
        with pytest.raises(ValueError):
            epsilon_net_minimum_samples(1.0, 0.0)


class TestAdaptiveSampling:
    def _population(self, n=20000, seed=0):
        rng = np.random.default_rng(seed)
        return rng.poisson(1.5, size=n).astype(float)

    def test_estimate_within_tolerance(self, rng):
        population = self._population()
        result = adaptive_sample(
            sample_fn=lambda idx: population[idx],
            population_size=population.size,
            error_tolerance=0.05,
            confidence=0.95,
            value_range=float(population.max() + 1),
            rng=rng,
        )
        assert result.converged
        assert abs(result.estimate - population.mean()) < 0.1

    def test_uses_fewer_samples_than_population(self, rng):
        population = self._population()
        result = adaptive_sample(
            sample_fn=lambda idx: population[idx],
            population_size=population.size,
            error_tolerance=0.1,
            confidence=0.95,
            value_range=float(population.max() + 1),
            rng=rng,
        )
        assert result.samples_used < population.size / 10

    def test_tighter_tolerance_needs_more_samples(self):
        population = self._population()
        results = {}
        for tolerance in (0.1, 0.01):
            results[tolerance] = adaptive_sample(
                sample_fn=lambda idx: population[idx],
                population_size=population.size,
                error_tolerance=tolerance,
                confidence=0.95,
                value_range=float(population.max() + 1),
                rng=np.random.default_rng(0),
            )
        assert results[0.01].samples_used > results[0.1].samples_used

    def test_constant_population_converges_immediately(self, rng):
        population = np.full(5000, 3.0)
        result = adaptive_sample(
            sample_fn=lambda idx: population[idx],
            population_size=population.size,
            error_tolerance=0.05,
            confidence=0.95,
            value_range=4.0,
            rng=rng,
        )
        assert result.converged
        assert result.estimate == pytest.approx(3.0)
        assert result.rounds == 1

    def test_census_of_population_is_exact(self, rng):
        # Sampling the entire (tiny) population: the finite population
        # correction certifies the exact answer.
        population = np.array([0.0, 100.0] * 25)
        result = adaptive_sample(
            sample_fn=lambda idx: population[idx],
            population_size=population.size,
            error_tolerance=0.001,
            confidence=0.95,
            value_range=101.0,
            rng=rng,
        )
        assert result.converged
        assert result.samples_used == population.size
        assert result.estimate == pytest.approx(population.mean())

    def test_sample_cap_prevents_convergence(self, rng):
        population = np.array([0.0, 100.0] * 500)
        result = adaptive_sample(
            sample_fn=lambda idx: population[idx],
            population_size=population.size,
            error_tolerance=0.001,
            confidence=0.95,
            value_range=101.0,
            rng=rng,
            max_samples=50,
        )
        assert not result.converged
        assert result.samples_used == 50

    def test_sample_indices_unique(self, rng):
        population = self._population(n=2000)
        result = adaptive_sample(
            sample_fn=lambda idx: population[idx],
            population_size=population.size,
            error_tolerance=0.05,
            confidence=0.95,
            value_range=float(population.max() + 1),
            rng=rng,
        )
        assert len(np.unique(result.sampled_indices)) == result.samples_used

    @pytest.mark.parametrize("seed", range(4))
    def test_one_frame_never_certifies_an_interval(self, seed):
        """A tolerance at or above ``K`` makes the epsilon-net minimum a single
        frame, whose zero sample deviation would certify any tolerance."""
        population = np.random.default_rng(0).poisson(2.0, size=5000).astype(float)
        result = adaptive_sample(
            sample_fn=lambda idx: population[idx],
            population_size=population.size,
            error_tolerance=5.0,
            confidence=0.95,
            value_range=4.0,
            rng=np.random.default_rng(seed),
        )
        assert result.samples_used >= 2
        assert result.half_width > 0.0

    def test_one_sample_of_a_larger_population_is_not_convergence(self, rng):
        population = np.arange(10.0)
        capped = adaptive_sample(
            lambda idx: population[idx], 10, 5.0, 0.95, 4.0, rng, max_samples=1
        )
        assert capped.samples_used == 1
        assert not capped.converged
        whole = adaptive_sample(lambda idx: population[idx][:1], 1, 5.0, 0.95, 4.0, rng)
        assert whole.samples_used == 1
        assert whole.converged

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            adaptive_sample(lambda i: i, 0, 0.1, 0.95, 1.0, rng)
        with pytest.raises(ValueError):
            adaptive_sample(lambda i: i, 10, -0.1, 0.95, 1.0, rng)


class TestControlVariates:
    def _correlated_data(self, n=20000, correlation_noise=0.3, seed=0):
        rng = np.random.default_rng(seed)
        truth = rng.poisson(1.5, size=n).astype(float)
        auxiliary = truth + rng.normal(0.0, correlation_noise, size=n)
        return truth, auxiliary

    def test_optimal_coefficient_for_identical_variable(self):
        values = np.random.default_rng(0).normal(size=500)
        assert optimal_coefficient(values, values) == pytest.approx(-1.0)

    def test_optimal_coefficient_uncorrelated_is_near_zero(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=5000)
        t = rng.normal(size=5000)
        assert abs(optimal_coefficient(m, t)) < 0.1

    def test_optimal_coefficient_degenerate_inputs(self):
        assert optimal_coefficient(np.array([1.0]), np.array([2.0])) == 0.0
        assert optimal_coefficient(np.ones(10), np.ones(10)) == 0.0

    def test_optimal_coefficient_length_mismatch(self):
        with pytest.raises(ValueError):
            optimal_coefficient(np.ones(3), np.ones(4))

    def test_estimate_is_accurate(self, rng):
        truth, auxiliary = self._correlated_data()
        result = control_variate_estimate(
            sample_fn=lambda idx: truth[idx],
            auxiliary_values=auxiliary,
            error_tolerance=0.05,
            confidence=0.95,
            value_range=float(truth.max() + 1),
            rng=rng,
        )
        assert result.converged
        assert abs(result.estimate - truth.mean()) < 0.1

    def test_control_variates_beat_plain_sampling(self):
        """The headline claim of Section 6.3: fewer samples for the same bound."""
        truth, auxiliary = self._correlated_data(correlation_noise=0.2)
        plain_samples = []
        cv_samples = []
        for seed in range(5):
            plain = adaptive_sample(
                sample_fn=lambda idx: truth[idx],
                population_size=truth.size,
                error_tolerance=0.03,
                confidence=0.95,
                value_range=float(truth.max() + 1),
                rng=np.random.default_rng(seed),
            )
            cv = control_variate_estimate(
                sample_fn=lambda idx: truth[idx],
                auxiliary_values=auxiliary,
                error_tolerance=0.03,
                confidence=0.95,
                value_range=float(truth.max() + 1),
                rng=np.random.default_rng(seed),
            )
            plain_samples.append(plain.samples_used)
            cv_samples.append(cv.samples_used)
        assert np.mean(cv_samples) < np.mean(plain_samples)

    def test_correlation_reported(self, rng):
        truth, auxiliary = self._correlated_data(correlation_noise=0.2)
        result = control_variate_estimate(
            sample_fn=lambda idx: truth[idx],
            auxiliary_values=auxiliary,
            error_tolerance=0.05,
            confidence=0.95,
            value_range=float(truth.max() + 1),
            rng=rng,
        )
        assert result.correlation > 0.8

    def test_fixed_coefficient_mode(self, rng):
        truth, auxiliary = self._correlated_data()
        result = control_variate_estimate(
            sample_fn=lambda idx: truth[idx],
            auxiliary_values=auxiliary,
            error_tolerance=0.05,
            confidence=0.95,
            value_range=float(truth.max() + 1),
            rng=rng,
            fixed_coefficient=-1.0,
        )
        assert result.coefficient == -1.0
        assert abs(result.estimate - truth.mean()) < 0.1

    def test_useless_auxiliary_still_unbiased(self, rng):
        rng_data = np.random.default_rng(0)
        truth = rng_data.poisson(2.0, size=10000).astype(float)
        auxiliary = rng_data.normal(size=10000)  # uncorrelated
        result = control_variate_estimate(
            sample_fn=lambda idx: truth[idx],
            auxiliary_values=auxiliary,
            error_tolerance=0.05,
            confidence=0.95,
            value_range=float(truth.max() + 1),
            rng=rng,
        )
        assert abs(result.estimate - truth.mean()) < 0.15

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            control_variate_estimate(
                sample_fn=lambda idx: idx,
                auxiliary_values=np.array([]),
                error_tolerance=0.1,
                confidence=0.95,
                value_range=1.0,
                rng=rng,
            )
        with pytest.raises(ValueError):
            control_variate_estimate(
                sample_fn=lambda idx: idx,
                auxiliary_values=np.ones(10),
                error_tolerance=0.0,
                confidence=0.95,
                value_range=1.0,
                rng=rng,
            )
