"""Approximate query processing substrate.

Implements the sampling machinery of Section 6 as one loop
(:func:`repro.aqp.sampling.sampling_rounds`): adaptive sampling with an
epsilon-net minimum sample size and a CLT stopping rule over the estimator
``mean(m) + c * (mean(t) - tau)``.  Given the specialized NN's outputs as the
cheap auxiliary variable ``t`` it is the control-variates estimator; given
none (``c = 0``) it is traditional AQP.

The two entry points (``adaptive_sample_stream`` / ``control_variate_stream``)
return that generator: one :class:`SamplingRound` per sampling round, so
streaming consumers can watch the confidence interval shrink, and the
blocking functions simply drain it into a :class:`SamplingResult`.
"""

from repro.aqp.estimators import (
    clt_half_width,
    finite_population_correction,
    optimal_coefficient,
    sample_standard_deviation,
)
from repro.aqp.sampling import (
    SamplingResult,
    SamplingRound,
    adaptive_sample,
    adaptive_sample_stream,
)
from repro.aqp.control_variates import (
    control_variate_estimate,
    control_variate_stream,
)

__all__ = [
    "clt_half_width",
    "finite_population_correction",
    "sample_standard_deviation",
    "SamplingResult",
    "SamplingRound",
    "adaptive_sample",
    "adaptive_sample_stream",
    "control_variate_estimate",
    "control_variate_stream",
    "optimal_coefficient",
]
