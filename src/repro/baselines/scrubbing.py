"""Scrubbing baselines (the non-BlazeIt bars of Figures 6-9)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.recorded import RecordedDetections
from repro.metrics.runtime import RuntimeLedger
from repro.scrubbing.baselines import (
    noscope_oracle_scrub,
    sequential_scrub,
)
from repro.scrubbing.importance import ScrubbingResult


@dataclass
class BaselineScrubResult:
    """Result of a scrubbing baseline run."""

    frames: list[int]
    detection_calls: int
    ledger: RuntimeLedger
    satisfied: bool

    @property
    def runtime_seconds(self) -> float:
        """Total simulated runtime of the baseline."""
        return self.ledger.total_seconds


def _verify_fn(
    recorded: RecordedDetections,
    min_counts: dict[str, int],
    ledger: RuntimeLedger,
):
    def verify(frame_index: int) -> bool:
        # Reading the recording stands in for running the detector.
        ledger.charge(recorded.detector.cost)
        return recorded.satisfies_min_counts(frame_index, min_counts)

    return verify


def _wrap(result: ScrubbingResult, ledger: RuntimeLedger) -> BaselineScrubResult:
    return BaselineScrubResult(
        frames=sorted(result.frames),
        detection_calls=result.detection_calls,
        ledger=ledger,
        satisfied=result.satisfied,
    )


def naive_scrub(
    recorded: RecordedDetections,
    min_counts: dict[str, int],
    limit: int,
    gap: int = 0,
) -> BaselineScrubResult:
    """Sequential detection scan until the requested number of matches is found."""
    ledger = RuntimeLedger()
    result = sequential_scrub(
        num_frames=recorded.num_frames,
        verify_fn=_verify_fn(recorded, min_counts, ledger),
        limit=limit,
        gap=gap,
    )
    return _wrap(result, ledger)


def noscope_oracle_scrub_baseline(
    recorded: RecordedDetections,
    min_counts: dict[str, int],
    limit: int,
    gap: int = 0,
) -> BaselineScrubResult:
    """Detection scan restricted to frames the oracle says contain every class.

    The oracle (free) knows binary presence but not counts, so the detector
    must still verify each candidate frame.
    """
    ledger = RuntimeLedger()
    presence = np.ones(recorded.num_frames, dtype=bool)
    for object_class in min_counts:
        presence &= recorded.presence(object_class)
    result = noscope_oracle_scrub(
        presence_mask=presence,
        verify_fn=_verify_fn(recorded, min_counts, ledger),
        limit=limit,
        gap=gap,
    )
    return _wrap(result, ledger)
