"""Threshold calibration and error estimation on the held-out set.

Two pieces of the paper's statistical machinery live here:

* :func:`calibrate_no_false_negative_threshold` — filters in content-based
  selection are "set to have no false negatives on the held-out set"
  (Section 8); the calibrated threshold is the largest score cut-off that
  still passes every positive held-out frame.
* :func:`batch_means_error_bound` — the aggregation optimizer estimates the
  error of the specialized NN on a held-out set (Section 6.2) before
  deciding whether query rewriting is safe.  The paper uses the bootstrap;
  held-out frames are autocorrelated (objects dwell, traffic bursts), and
  i.i.d. resamples understate the error of a day's mean, so the bound is
  taken from contiguous-block (batch) means instead: one deterministic
  pass, no resampling, no randomness.  The rewrite reports the bound as its
  half-width: the gate's statistic, not a calibrated confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, stats


@dataclass(frozen=True)
class ThresholdCalibration:
    """Result of calibrating a score threshold on the held-out set."""

    threshold: float
    selectivity: float
    positives: int
    false_negatives: int


def calibrate_no_false_negative_threshold(
    scores: np.ndarray,
    is_positive: np.ndarray,
    margin: float = 1e-9,
) -> ThresholdCalibration:
    """Choose the largest threshold with zero false negatives on held-out data.

    Parameters
    ----------
    scores:
        Filter scores per held-out frame (higher means "more likely relevant").
    is_positive:
        Boolean mask of frames that truly satisfy the predicate.
    margin:
        Small slack subtracted from the minimum positive score so that
        borderline positives still pass on unseen data.

    Returns
    -------
    ThresholdCalibration
        The threshold, the fraction of held-out frames that pass it
        (selectivity), the number of positives and the number of false
        negatives at the chosen threshold (zero by construction when any
        positive exists).
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_positive = np.asarray(is_positive, dtype=bool)
    if scores.shape[0] != is_positive.shape[0]:
        raise ValueError(
            f"score/label length mismatch: {scores.shape[0]} vs {is_positive.shape[0]}"
        )
    if scores.size == 0:
        return ThresholdCalibration(
            threshold=float("-inf"), selectivity=1.0, positives=0, false_negatives=0
        )
    if not is_positive.any():
        # No positive examples: any threshold is "no false negatives"; pass
        # everything so the filter is a no-op rather than silently wrong.
        return ThresholdCalibration(
            threshold=float("-inf"),
            selectivity=1.0,
            positives=0,
            false_negatives=0,
        )
    threshold = float(scores[is_positive].min()) - margin
    passed = scores >= threshold
    false_negatives = int(np.sum(is_positive & ~passed))
    return ThresholdCalibration(
        threshold=threshold,
        selectivity=float(np.mean(passed)),
        positives=int(is_positive.sum()),
        false_negatives=false_negatives,
    )


#: Integrated autocorrelation times per block: shorter blocks leave their
#: means correlated (bursts outlast the window ``tau`` is summed over).
BLOCK_TAUS = 4.0


def batch_means_error_bound(
    predictions: np.ndarray, truths: np.ndarray, confidence: float
) -> float:
    """The error of the mean prediction on an unseen day, at ``confidence``.

    One deterministic pass over the held-out residuals (prediction minus
    truth, in frame order), cut into contiguous blocks of :data:`BLOCK_TAUS`
    integrated autocorrelation times; the block means' spread gives the
    standard error ``se`` of the held-out mean.  An unseen day's mean
    residual is ``mean + sqrt(2) * se * T``, ``T`` Student-t on ``blocks -
    1`` degrees of freedom (the noise of both days), and the bound is the
    ``confidence`` quantile of its absolute value.  Fewer than two blocks
    bound nothing: the result is infinite.

    The bound is the statistic Algorithm 1's gate compares with ``eps``,
    not a calibrated interval: block means are not quite independent and
    normal, and the gate admits the days whose spread came out small, so a
    rewrite's test-day error exceeds its bound more often than ``1 -
    confidence`` (``benchmarks/gate_sweep.py`` reports how often).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape:
        raise ValueError(
            f"prediction/truth length mismatch: {predictions.shape[0]} vs {truths.shape[0]}"
        )
    residuals = predictions - truths
    if residuals.size == 0:
        raise ValueError("cannot bound the error of zero held-out frames")
    n = residuals.size
    blocks = int(n / (BLOCK_TAUS * integrated_autocorrelation_time(residuals)))
    if blocks < 2:
        return math.inf
    starts = (np.arange(blocks) * n) // blocks
    means = np.add.reduceat(residuals, starts) / np.diff(starts, append=n)
    scale = math.sqrt(2.0 / blocks) * float(np.std(means, ddof=1))
    centre = float(residuals.mean())
    if scale == 0.0:
        return abs(centre)
    error = stats.t(blocks - 1, loc=centre, scale=scale)
    # |centre + scale * T| <= |centre| + scale * |T| brackets the quantile.
    upper = abs(centre) + scale * float(stats.t.ppf(0.5 + confidence / 2.0, blocks - 1))
    return float(optimize.brentq(lambda q: error.cdf(q) - error.cdf(-q) - confidence, 0.0, upper))


def integrated_autocorrelation_time(series: np.ndarray) -> float:
    """``1 + 2 * sum(rho_k)``, summed up to Sokal's self-consistent window.

    The autocorrelations ``rho_k`` come from one FFT; the sum stops at the
    first lag ``M >= 5 * tau(M)``, which exists because the autocorrelations
    of a centred series sum to -1/2.  A constant series is uncorrelated.
    """
    centred = np.asarray(series, dtype=np.float64) - np.mean(series)
    n = centred.size
    variance = float(centred @ centred)
    if n < 2 or variance == 0.0:
        return 1.0
    spectrum = np.fft.rfft(centred, 2 * n)
    rho = np.fft.irfft(spectrum * np.conj(spectrum))[1:n] / variance
    taus = 1.0 + 2.0 * np.cumsum(rho)
    window = int(np.argmax(np.arange(1, n) >= 5.0 * taus))
    return max(1.0, float(taus[window]))
