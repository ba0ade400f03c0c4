"""Statistical estimators shared by the sampling procedures.

The stopping rule of Section 6.1 terminates "when the CLT bound gives that the
error rate is satisfied at the given confidence level", using the percent
point function of the normal distribution and the finite sample correction for
the sample standard deviation.
"""

from __future__ import annotations

import numpy as np
from scipy import stats


def sample_standard_deviation(values: np.ndarray) -> float:
    """Sample standard deviation with Bessel's correction.

    Returns zero for samples with fewer than two elements.  The epsilon-net
    minimum alone does not keep such samples away from the stopping rule (it
    is 1 whenever the tolerance reaches ``K``); the sampling loop does, by
    drawing at least two frames and never declaring convergence on one.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def optimal_coefficient(m_values: np.ndarray, t_values: np.ndarray) -> float:
    """The variance-minimising control-variate coefficient ``-Cov(m,t)/Var(t)``."""
    m_values = np.asarray(m_values, dtype=np.float64)
    t_values = np.asarray(t_values, dtype=np.float64)
    if m_values.shape[0] != t_values.shape[0]:
        raise ValueError(
            f"length mismatch: {m_values.shape[0]} vs {t_values.shape[0]}"
        )
    if m_values.size < 2:
        return 0.0
    var_t = float(np.var(t_values, ddof=1))
    if var_t < 1e-12:
        return 0.0
    cov = float(np.cov(m_values, t_values, ddof=1)[0, 1])
    return -cov / var_t


def finite_population_correction(sample_size: int, population_size: int) -> float:
    """Finite population correction factor for sampling without replacement."""
    if population_size <= 1:
        return 0.0
    if sample_size >= population_size:
        return 0.0
    return float(np.sqrt((population_size - sample_size) / (population_size - 1)))


def clt_half_width(
    std: float,
    sample_size: int,
    confidence: float,
    population_size: int | None = None,
) -> float:
    """Half width of the CLT confidence interval for a sample mean.

    ``Q(1 - delta/2) * sigma_hat / sqrt(N)``, optionally shrunk by the finite
    population correction when the population size is known.
    """
    if sample_size < 1:
        return float("inf")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    z = float(stats.norm.ppf(1.0 - (1.0 - confidence) / 2.0))
    half_width = z * std / np.sqrt(sample_size)
    if population_size is not None:
        half_width *= finite_population_correction(sample_size, population_size)
    return float(half_width)


def epsilon_net_minimum_samples(value_range: float, error_tolerance: float) -> int:
    """Minimum sample size ``K / epsilon`` from the paper's epsilon-net argument.

    ``K`` is the range of the estimated quantity (e.g. the maximum per-frame
    count plus one) and ``epsilon`` the user's absolute error tolerance.
    """
    if error_tolerance <= 0:
        raise ValueError(f"error_tolerance must be positive, got {error_tolerance}")
    if value_range <= 0:
        return 1
    return max(1, int(np.ceil(value_range / error_tolerance)))
