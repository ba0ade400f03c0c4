"""Importance-sampling scrubbing using specialized-NN confidences.

The planner of Section 7.1: label every frame with the specialized NN
(cheap), rank frames by the conjunction score, and run the object detector
down the ranking until the requested number of *verified* frames is found.
Only true positives are ever returned because every candidate is verified by
the full detector; the ``GAP`` constraint is enforced on the verified frames.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ScrubbingResult:
    """Result of a scrubbing run.

    Attributes
    ----------
    frames:
        Frame indices returned to the user (all verified true positives).
    detection_calls:
        Number of full object-detection invocations spent.
    frames_examined:
        Number of candidate frames considered (same as ``detection_calls`` for
        detector-verified strategies).
    satisfied:
        Whether the requested limit was reached before candidates ran out.
    """

    frames: list[int] = field(default_factory=list)
    detection_calls: int = 0
    frames_examined: int = 0
    satisfied: bool = False


def _respects_gap(frame: int, accepted_sorted: list[int], gap: int) -> bool:
    """Whether ``frame`` is at least ``gap`` away from every accepted frame.

    ``accepted_sorted`` must be kept sorted; only the two neighbours of the
    insertion point can violate the gap, so the check is O(log n) instead of
    O(n) per candidate.
    """
    if gap <= 0:
        return True
    position = bisect_left(accepted_sorted, frame)
    if position > 0 and frame - accepted_sorted[position - 1] < gap:
        return False
    if (
        position < len(accepted_sorted)
        and accepted_sorted[position] - frame < gap
    ):
        return False
    return True


class ScrubState:
    """The accept/gap/limit bookkeeping of one scrubbing run.

    The single home of the acceptance semantics, shared by the scalar
    :func:`scrub_ordered` walk of the baselines and the streaming plan's
    chunked :class:`~repro.optimizer.operators.verify.DetectorVerifier`:
    candidates are :meth:`eligible` while not yet accepted and at least
    ``gap`` away from every accepted frame (checked in O(log n) against a
    sorted accepted list), and :meth:`examine` records one
    verified/rejected candidate into the underlying
    :class:`ScrubbingResult`, flipping ``satisfied`` when the limit is
    reached.  State carries over when resuming a run (e.g. an exhaustive
    fallback sweep after an importance scan) by rebuilding from the result's
    accepted frames.
    """

    def __init__(self, result: ScrubbingResult, limit: int, gap: int) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.result = result
        self.limit = limit
        self.gap = gap
        self._accepted = set(result.frames)
        self._accepted_sorted = sorted(result.frames)

    @property
    def satisfied(self) -> bool:
        """Whether the limit has been reached."""
        return self.result.satisfied

    @property
    def hits(self) -> int:
        """Number of accepted frames so far."""
        return len(self.result.frames)

    def eligible(self, frame: int) -> bool:
        """Whether a candidate is worth verifying (free check, no detector)."""
        return frame not in self._accepted and _respects_gap(
            frame, self._accepted_sorted, self.gap
        )

    def examine(self, frame: int, verified: bool) -> bool:
        """Record one examined candidate; returns whether it was accepted."""
        self.result.detection_calls += 1
        self.result.frames_examined += 1
        if verified:
            self.result.frames.append(frame)
            self._accepted.add(frame)
            insort(self._accepted_sorted, frame)
            if len(self.result.frames) >= self.limit:
                self.result.satisfied = True
        return verified


def scrub_ordered(
    candidate_order: np.ndarray | list[int],
    verify_fn: Callable[[int], bool],
    limit: int,
    gap: int = 0,
) -> ScrubbingResult:
    """Walk candidate frames in the given order, verifying each with the detector.

    This is the shared engine behind the importance-ranked strategy and all
    baselines; they differ only in the order of ``candidate_order``.
    """
    result = ScrubbingResult()
    state = ScrubState(result, limit=limit, gap=gap)
    for frame in candidate_order:
        frame = int(frame)
        if state.eligible(frame):
            state.examine(frame, verify_fn(frame))
            if state.satisfied:
                break
    return result


def importance_scrub(
    scores: np.ndarray,
    verify_fn: Callable[[int], bool],
    limit: int,
    gap: int = 0,
) -> ScrubbingResult:
    """Scrub by descending specialized-NN score.

    Parameters
    ----------
    scores:
        Per-frame conjunction scores from the specialized NN (higher means
        more likely to satisfy the predicate).
    verify_fn:
        Runs the full detector on one frame and returns whether the frame
        truly satisfies the predicate.
    limit:
        Number of verified frames requested (``LIMIT``).
    gap:
        Minimum distance between returned frames (``GAP``).
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    return scrub_ordered(order, verify_fn, limit, gap)
