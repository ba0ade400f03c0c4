"""Content-based selection baselines (the non-BlazeIt bars of Figure 10)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.recorded import RecordedDetections
from repro.frameql.analyzer import SelectionQuerySpec
from repro.metrics.runtime import RuntimeLedger
from repro.optimizer.operators import predicate_mask
from repro.udf.registry import UDFRegistry


@dataclass
class BaselineSelectionResult:
    """Result of a selection baseline run."""

    matched_frames: list[int]
    detection_calls: int
    ledger: RuntimeLedger

    @property
    def runtime_seconds(self) -> float:
        """Total simulated runtime of the baseline."""
        return self.ledger.total_seconds


def _matched_frames(
    recorded: RecordedDetections,
    spec: SelectionQuerySpec,
    udf_registry: UDFRegistry,
    candidate_frames,
) -> list[int]:
    batch = recorded.batch
    matches = batch.frame_counts(predicate_mask(batch, spec, udf_registry)) > 0
    return [int(frame) for frame in candidate_frames if matches[int(frame)]]


def naive_selection(
    recorded: RecordedDetections,
    spec: SelectionQuerySpec,
    udf_registry: UDFRegistry,
) -> BaselineSelectionResult:
    """Run the detector on every frame and evaluate the predicates."""
    ledger = RuntimeLedger()
    ledger.charge(recorded.detector.cost, recorded.num_frames)
    matched = _matched_frames(
        recorded, spec, udf_registry, range(recorded.num_frames)
    )
    return BaselineSelectionResult(
        matched_frames=matched,
        detection_calls=recorded.num_frames,
        ledger=ledger,
    )


def noscope_oracle_selection(
    recorded: RecordedDetections,
    spec: SelectionQuerySpec,
    udf_registry: UDFRegistry,
) -> BaselineSelectionResult:
    """Run the detector only on frames the oracle says contain the class.

    The oracle can use label-based filtering only (Section 10.1.1); content,
    temporal and spatial pruning are unavailable to it.
    """
    ledger = RuntimeLedger()
    if spec.object_class is not None:
        candidates = recorded.frames_satisfying({spec.object_class: 1})
    else:
        candidates = range(recorded.num_frames)
    candidates = list(candidates)
    ledger.charge(recorded.detector.cost, len(candidates))
    matched = _matched_frames(recorded, spec, udf_registry, candidates)
    return BaselineSelectionResult(
        matched_frames=matched,
        detection_calls=len(candidates),
        ledger=ledger,
    )
