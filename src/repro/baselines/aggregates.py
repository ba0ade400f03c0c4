"""Aggregate-query baselines (the non-BlazeIt bars of Figure 4).

* ``naive_aggregate`` — object detection on every frame.
* ``noscope_oracle_aggregate`` — detection only on frames where the (free)
  oracle says the class is present; empty frames contribute zero to the count
  without a detector call.
* ``naive_aqp_aggregate`` — uniform adaptive sampling of detector calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aqp.sampling import adaptive_sample
from repro.core.recorded import RecordedDetections
from repro.metrics.runtime import RuntimeLedger


@dataclass
class BaselineAggregateResult:
    """Result of an aggregate baseline run."""

    value: float
    detection_calls: int
    ledger: RuntimeLedger
    samples_used: int

    @property
    def runtime_seconds(self) -> float:
        """Total simulated runtime of the baseline."""
        return self.ledger.total_seconds


def naive_aggregate(
    recorded: RecordedDetections, object_class: str
) -> BaselineAggregateResult:
    """FCOUNT by running the detector on every frame."""
    ledger = RuntimeLedger()
    ledger.charge(recorded.cost, recorded.num_frames)
    return BaselineAggregateResult(
        value=recorded.mean_count(object_class),
        detection_calls=recorded.num_frames,
        ledger=ledger,
        samples_used=recorded.num_frames,
    )


def noscope_oracle_aggregate(
    recorded: RecordedDetections, object_class: str
) -> BaselineAggregateResult:
    """FCOUNT using the NoScope oracle to skip empty frames.

    The oracle (free) reports presence per frame; the detector is then called
    only on occupied frames to count the individual objects, exactly as in
    Section 10.1.1.
    """
    ledger = RuntimeLedger()
    occupied = int(recorded.presence(object_class).sum())
    ledger.charge(recorded.cost, occupied)
    return BaselineAggregateResult(
        value=recorded.mean_count(object_class),
        detection_calls=occupied,
        ledger=ledger,
        samples_used=recorded.num_frames,
    )


def naive_aqp_aggregate(
    recorded: RecordedDetections,
    object_class: str,
    error_tolerance: float,
    confidence: float = 0.95,
    rng: np.random.Generator | None = None,
    value_range: float | None = None,
) -> BaselineAggregateResult:
    """FCOUNT by uniform adaptive sampling of detector calls (no variance reduction)."""
    ledger = RuntimeLedger()
    counts = recorded.counts(object_class)
    if value_range is None:
        value_range = float(counts.max(initial=0) + 1)

    def sample_fn(indices: np.ndarray) -> np.ndarray:
        ledger.charge(recorded.cost, int(np.asarray(indices).size))
        return counts[np.asarray(indices, dtype=np.int64)]

    result = adaptive_sample(
        sample_fn=sample_fn,
        population_size=recorded.num_frames,
        error_tolerance=error_tolerance,
        confidence=confidence,
        value_range=value_range,
        rng=rng,
    )
    return BaselineAggregateResult(
        value=result.estimate,
        detection_calls=result.samples_used,
        ledger=ledger,
        samples_used=result.samples_used,
    )
