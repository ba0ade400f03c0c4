"""Correctness checks applied to every op; a miss is a failed op.

Each check returns ``None`` when the result is right and a one-line reason
when it is not, so the runner can count failures and say why.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.core.results import AggregateResult, QueryResult, ScrubbingQueryResult
from repro.detection.base import ObjectDetector
from repro.service.protocol import result_fingerprint, result_from_json, result_to_json
from repro.video.synthetic import SyntheticVideo


def truth_counts(
    video: SyntheticVideo, detector: ObjectDetector, object_class: str
) -> np.ndarray:
    """Per-frame count of ``object_class`` in the detector's own output — the
    ground truth BlazeIt is "as accurate as"."""
    results = detector.detect_many(video, list(range(video.num_frames)))
    return np.array([r.count(object_class) for r in results], dtype=np.int64)


def check_fingerprint(result: QueryResult, reference: str) -> str | None:
    if result_fingerprint(result) != reference:
        return f"{result.kind} fingerprint differs from the warm-up execution's"
    return None


def check_scrubbing(
    result: QueryResult, counts: np.ndarray, min_count: int, limit: int, gap: int
) -> str | None:
    """No false positives, GAP respected, and ``min(LIMIT, available)`` hits.

    Fewer than ``limit`` frames is right only when nothing else qualifies:
    every other satisfying frame must lie within ``gap`` of a returned one.
    """
    if not isinstance(result, ScrubbingQueryResult):
        return f"expected a scrubbing result, got {type(result).__name__}"
    frames = sorted(int(f) for f in result.frames)
    if len(frames) > limit:
        return f"scrubbing returned {len(frames)} frames for LIMIT {limit}"
    for frame in frames:
        if counts[frame] < min_count:
            return (
                f"scrubbing frame {frame} has {counts[frame]} objects, "
                f"predicate needs >= {min_count}"
            )
    for earlier, later in zip(frames, frames[1:], strict=False):
        if later - earlier < gap:
            return f"scrubbing frames {earlier} and {later} violate GAP {gap}"
    if len(frames) < limit:
        accepted = np.asarray(frames, dtype=np.int64)
        for frame in np.flatnonzero(counts >= min_count):
            if accepted.size == 0 or np.abs(accepted - frame).min() >= gap:
                return (
                    f"scrubbing stopped at {len(frames)} of {limit} hits but "
                    f"frame {int(frame)} still qualifies"
                )
    return None


def check_no_detector_calls(result: QueryResult) -> str | None:
    calls = result.execution_ledger.detector_calls
    if calls != 0:
        return f"{result.kind} paid {calls} detector calls where none are allowed"
    return None


def check_wire_roundtrip(payload: dict[str, Any]) -> str | None:
    """A serialized result must survive ``result_from_json`` unchanged."""
    again = result_to_json(result_from_json(payload))
    if json.dumps(again, sort_keys=True) != json.dumps(payload, sort_keys=True):
        return f"{payload.get('kind')} result changed across result_from_json"
    return None


#: Aggregate methods that answer without sampling: the specialized-NN rewrite
#: vouches for itself on the held-out day only, and an exact scan has no error.
UNSAMPLED_METHODS = ("specialized_rewrite", "exact")


def aggregate_error(result: QueryResult, exact: float) -> float | None:
    """Absolute error of an aggregate against the exact answer."""
    if not isinstance(result, AggregateResult):
        return None
    return abs(result.value - exact)


def aggregate_within_bound(result: QueryResult, exact: float) -> bool | None:
    """Whether a *sampled* aggregate landed within its requested tolerance of
    the exact answer; ``None`` for anything else.  Reported as a ratio, not
    failed per op: a 95% guarantee legitimately misses."""
    if (
        not isinstance(result, AggregateResult)
        or result.error_tolerance is None
        or result.method in UNSAMPLED_METHODS
    ):
        return None
    return abs(result.value - exact) <= result.error_tolerance
