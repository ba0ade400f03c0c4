"""Adaptive sampling with an epsilon-net start and a CLT stopping rule.

The one sampling loop of Section 6 (:func:`sampling_rounds`): sample frames
uniformly without replacement, starting from the epsilon-net minimum
``K / epsilon`` samples, linearly increasing the sample size each round, and
terminating when the CLT bound certifies the user's absolute error tolerance
at the requested confidence.  Termination is driven by the *sample variance*,
which is exactly what lets variance-reduction methods terminate earlier: the
control-variate estimator of Section 6.3
(:mod:`repro.aqp.control_variates`) is this loop with an auxiliary variable,
and the "traditional AQP" of Section 6.1 (:func:`adaptive_sample`) is the
same loop with none (``c = 0``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.aqp.estimators import (
    clt_half_width,
    epsilon_net_minimum_samples,
    optimal_coefficient,
    sample_standard_deviation,
)

#: External stop predicate checked once per round: ``(samples_used,
#: half_width) -> bool``.  Used to thread user stop conditions (CI-width
#: targets, detector budgets, cancellation) into the sampling loop.
StopPredicate = Callable[[int, float], bool]

#: Linear growth of the sample: every round after the first adds this
#: fraction of the first round, and never fewer than ``MIN_ROUND_SAMPLES``.
ROUND_GROWTH = 0.5
MIN_ROUND_SAMPLES = 50


def round_sizes(
    value_range: float, error_tolerance: float, max_samples: int
) -> tuple[int, int]:
    """``(first round, growth per round)`` of the sampling loop.

    The first round is the epsilon-net minimum ``K / epsilon``, but never a
    single frame when two can be drawn: one sample has no variance, so the
    CLT bound over it would certify any tolerance.  The one definition the
    loop and the optimizer's call estimate share.
    """
    initial = min(
        max(2, epsilon_net_minimum_samples(value_range, error_tolerance)),
        max_samples,
    )
    return initial, max(MIN_ROUND_SAMPLES, int(initial * ROUND_GROWTH))


@dataclass
class SamplingResult:
    """Result of a sampling run, with or without a control variate.

    Without an auxiliary variable ``plain_estimate`` is ``estimate`` and
    ``coefficient`` / ``correlation`` are zero.
    """

    estimate: float
    half_width: float
    samples_used: int
    sampled_indices: np.ndarray
    sampled_values: np.ndarray
    rounds: int
    converged: bool
    plain_estimate: float
    coefficient: float = 0.0
    correlation: float = 0.0


@dataclass(frozen=True)
class SamplingRound:
    """One round of the sampling loop, as seen by a streaming consumer.

    ``done`` marks the final round; only then is ``result`` populated (with
    exactly what the blocking function would have returned).
    """

    estimate: float
    half_width: float
    samples_used: int
    rounds: int
    done: bool
    result: SamplingResult | None = None


def final_result(rounds: Iterator[SamplingRound]) -> SamplingResult:
    """Drain a sampling stream and return its final round's result."""
    for round_ in rounds:
        if round_.done:
            assert round_.result is not None
            return round_.result
    raise RuntimeError("sampling stream ended without a final round")


def adaptive_sample(
    sample_fn: Callable[[np.ndarray], np.ndarray],
    population_size: int,
    error_tolerance: float,
    confidence: float,
    value_range: float,
    rng: np.random.Generator | None = None,
    max_samples: int | None = None,
) -> SamplingResult:
    """Estimate the population mean of ``sample_fn`` to within a tolerance.

    Parameters
    ----------
    sample_fn:
        Maps an array of population indices (frame indices) to their values
        (e.g. the detector's per-frame count).  This is the expensive call the
        procedure minimises.
    population_size:
        Number of items (frames) in the population.
    error_tolerance:
        User's absolute error bound (``ERROR WITHIN``).
    confidence:
        Confidence level for the CLT bound (``AT CONFIDENCE``).
    value_range:
        ``K``, the range of the estimated quantity, for the epsilon-net
        minimum sample size.
    rng:
        Source of randomness; defaults to a fresh generator.
    max_samples:
        Hard cap on total samples (defaults to the population size).

    Returns
    -------
    SamplingResult
        The estimate, the final CLT half width, the indices sampled and
        whether the loop converged before exhausting the population.
    """
    return final_result(
        adaptive_sample_stream(
            sample_fn,
            population_size,
            error_tolerance,
            confidence,
            value_range,
            rng=rng,
            max_samples=max_samples,
        )
    )


def adaptive_sample_stream(
    sample_fn: Callable[[np.ndarray], np.ndarray],
    population_size: int,
    error_tolerance: float,
    confidence: float,
    value_range: float,
    rng: np.random.Generator | None = None,
    max_samples: int | None = None,
    should_stop: StopPredicate | None = None,
    announce: Callable[[np.ndarray], None] | None = None,
) -> Iterator[SamplingRound]:
    """Adaptive sampling as a stream: one :class:`SamplingRound` per round.

    :func:`sampling_rounds` with no auxiliary variable — what
    :func:`adaptive_sample` drains: identical sampling order, RNG stream and
    termination rule, but yielding the running estimate and CI half-width
    after every round so callers can watch the interval shrink.
    """
    return sampling_rounds(
        sample_fn,
        population_size,
        error_tolerance,
        confidence,
        value_range,
        rng=rng,
        max_samples=max_samples,
        should_stop=should_stop,
        announce=announce,
    )


def sampling_rounds(
    sample_fn: Callable[[np.ndarray], np.ndarray],
    population_size: int,
    error_tolerance: float,
    confidence: float,
    value_range: float,
    rng: np.random.Generator | None = None,
    max_samples: int | None = None,
    auxiliary_values: np.ndarray | None = None,
    fixed_coefficient: float | None = None,
    should_stop: StopPredicate | None = None,
    announce: Callable[[np.ndarray], None] | None = None,
) -> Iterator[SamplingRound]:
    """The sampling procedure of Section 6, written once.

    Estimates the mean of ``m`` (``sample_fn``) by
    ``mean(m) + c * (mean(t) - tau)`` over a growing uniform sample, which is
    unbiased for any ``c``: with ``auxiliary_values`` (``t`` for *every* item
    of the population, so ``tau`` is exact) ``c`` is ``fixed_coefficient`` or
    the variance-minimising coefficient re-estimated each round (Section
    6.3); without them ``c = 0`` and this is the traditional AQP of Section
    6.1.  The CLT stopping rule runs on the variance of the adjusted values,
    which is what lets a well-correlated auxiliary terminate earlier.

    ``should_stop`` is an external termination predicate checked after the
    built-in rules each round; when it fires the loop finalises early with
    ``converged`` reflecting only the CLT bound.

    ``announce`` receives the full sampling order (the permutation prefix
    the loop could ever consume) the moment it is drawn — the shard-aware
    hook that lets parallel executors prefetch ``sample_fn``'s detector work
    ahead of the rounds without changing a single draw.
    """
    if population_size < 1:
        raise ValueError(f"population_size must be >= 1, got {population_size}")
    if error_tolerance <= 0:
        raise ValueError(f"error_tolerance must be positive, got {error_tolerance}")
    # A deterministic default keeps results a pure function of the inputs
    # even when the caller supplies no generator.
    rng = rng or np.random.default_rng(0)
    max_samples = min(max_samples or population_size, population_size)
    initial, batch = round_sizes(value_range, error_tolerance, max_samples)
    tau = 0.0 if auxiliary_values is None else float(np.mean(auxiliary_values))

    # Sampling without replacement: a random permutation consumed prefix-first.
    permutation = rng.permutation(population_size)
    if announce is not None:
        announce(permutation[:max_samples])
    taken = initial
    values = np.asarray(sample_fn(permutation[:taken]), dtype=np.float64)
    rounds = 1
    coefficient = 0.0
    correlation = 0.0
    while True:
        adjusted = values
        if auxiliary_values is not None:
            t_sample = auxiliary_values[permutation[:taken]]
            if fixed_coefficient is not None:
                coefficient = fixed_coefficient
            else:
                coefficient = optimal_coefficient(values, t_sample)
            adjusted = values + coefficient * (t_sample - tau)
            if values.size >= 2 and np.std(values) > 1e-12 and np.std(t_sample) > 1e-12:
                correlation = float(np.corrcoef(values, t_sample)[0, 1])
        estimate = float(np.mean(adjusted))
        half_width = clt_half_width(
            sample_standard_deviation(adjusted), taken, confidence, population_size
        )
        # One sample of a larger population has no variance to bound.
        converged = half_width < error_tolerance and taken >= min(2, population_size)
        done = (
            converged
            or taken >= max_samples
            or (should_stop is not None and should_stop(taken, half_width))
        )
        result = None
        if done:
            result = SamplingResult(
                estimate=estimate,
                half_width=half_width,
                samples_used=taken,
                sampled_indices=permutation[:taken].copy(),
                sampled_values=values,
                rounds=rounds,
                converged=converged,
                plain_estimate=float(np.mean(values)),
                coefficient=coefficient,
                correlation=correlation,
            )
        yield SamplingRound(
            estimate=estimate,
            half_width=half_width,
            samples_used=taken,
            rounds=rounds,
            done=done,
            result=result,
        )
        if done:
            return
        next_taken = min(taken + batch, max_samples)
        new_values = np.asarray(
            sample_fn(permutation[taken:next_taken]), dtype=np.float64
        )
        values = np.concatenate([values, new_values])
        taken = next_taken
        rounds += 1
