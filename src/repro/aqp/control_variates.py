"""Control variates with specialized-NN auxiliary variables (Section 6.3).

The estimator of interest is the mean of an expensive per-frame statistic
``m`` (the detector's count).  The specialized NN provides a cheap auxiliary
variable ``t`` whose mean ``tau`` and variance can be computed *exactly* over
every frame (it runs at ~10,000 fps).  The control-variate estimator

    m_hat = mean(m) + c * (mean(t) - tau),   c = -Cov(m, t) / Var(t)

is unbiased for any ``c`` and has variance ``(1 - Corr(m, t)^2) * Var(m)``,
so a well-correlated specialized NN reduces the number of expensive detector
samples needed to hit the user's error bound.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.aqp.sampling import (
    SamplingResult,
    SamplingRound,
    StopPredicate,
    final_result,
    sampling_rounds,
)

def control_variate_estimate(
    sample_fn: Callable[[np.ndarray], np.ndarray],
    auxiliary_values: np.ndarray,
    error_tolerance: float,
    confidence: float,
    value_range: float,
    rng: np.random.Generator | None = None,
    max_samples: int | None = None,
    fixed_coefficient: float | None = None,
) -> SamplingResult:
    """Estimate the population mean of ``sample_fn`` using a control variate.

    Parameters
    ----------
    sample_fn:
        Maps population indices to the expensive statistic ``m`` (detector
        counts).
    auxiliary_values:
        The cheap statistic ``t`` for *every* item of the population (the
        specialized NN is run over all frames, so ``tau`` and ``Var(t)`` are
        exact).
    error_tolerance, confidence, value_range, max_samples:
        As in :func:`repro.aqp.sampling.adaptive_sample`.
    fixed_coefficient:
        When given, use this coefficient instead of estimating the optimal one
        each round (used by the ablation benchmark).
    """
    return final_result(
        control_variate_stream(
            sample_fn,
            auxiliary_values,
            error_tolerance,
            confidence,
            value_range,
            rng=rng,
            max_samples=max_samples,
            fixed_coefficient=fixed_coefficient,
        )
    )


def control_variate_stream(
    sample_fn: Callable[[np.ndarray], np.ndarray],
    auxiliary_values: np.ndarray,
    error_tolerance: float,
    confidence: float,
    value_range: float,
    rng: np.random.Generator | None = None,
    max_samples: int | None = None,
    fixed_coefficient: float | None = None,
    should_stop: StopPredicate | None = None,
    announce: Callable[[np.ndarray], None] | None = None,
) -> Iterator[SamplingRound]:
    """Control-variate estimation as a stream of per-round updates.

    :func:`repro.aqp.sampling.sampling_rounds` over a population whose size
    is the auxiliary vector's — what :func:`control_variate_estimate` drains:
    identical sampling order, RNG stream and termination rule, but yielding
    the variance-reduced running estimate and CI half-width after every
    round.  ``should_stop`` and ``announce`` are the loop's.
    """
    auxiliary_values = np.asarray(auxiliary_values, dtype=np.float64)
    return sampling_rounds(
        sample_fn,
        auxiliary_values.shape[0],
        error_tolerance,
        confidence,
        value_range,
        rng=rng,
        max_samples=max_samples,
        auxiliary_values=auxiliary_values,
        fixed_coefficient=fixed_coefficient,
        should_stop=should_stop,
        announce=announce,
    )
