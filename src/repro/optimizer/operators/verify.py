"""Detector-verification operator: chunked verification down a ranking."""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.events import (
    ExecutionControl,
    ExecutionEvent,
    Progress,
    ScrubbingHit,
)
from repro.metrics.runtime import ExecutionLedger
from repro.optimizer.operators.base import PhysicalOperator
from repro.scrubbing.importance import ScrubbingResult, ScrubState


class DetectorVerifier(PhysicalOperator):
    """Verify candidate frames with the full detector, in ranked order.

    Chunks of eligible candidates (not yet accepted, gap-respecting) are
    assembled up to the control's budget-trimmed batch allowance and verified
    with a single :meth:`~repro.core.context.ExecutionContext.detect_batch`
    call.  Acceptance decisions are then replayed in rank order through the
    same :class:`~repro.scrubbing.importance.ScrubState` bookkeeping the
    scalar walk uses, so the returned frames are identical for every batch
    size: an acceptance inside a chunk can invalidate a later in-chunk
    candidate (its prefetched detection is simply discarded — the documented
    chunking overshoot), never admit one the scalar path would have rejected.

    State accumulates in the caller's :class:`ScrubbingResult`, so a second
    ``stream`` call over a different candidate order *resumes* the run (the
    scrubbing plan's exhaustive fallback sweep after an importance scan).
    """

    name = "DetectorVerifier"

    def __init__(self, min_counts: dict[str, int], gap: int = 0) -> None:
        self.min_counts = min_counts
        self.gap = gap

    def describe(self) -> str:
        predicate = " AND ".join(
            f"{cls}>={count}" for cls, count in sorted(self.min_counts.items())
        )
        return f"DetectorVerifier({predicate}, gap={self.gap})"

    def stream(
        self,
        context: ExecutionContext,
        control: ExecutionControl,
        ledger: ExecutionLedger,
        candidate_order: np.ndarray,
        limit: int,
        result: ScrubbingResult,
    ) -> Generator[ExecutionEvent, None, np.ndarray]:
        """Verify candidates in ranked order, one detector batch per chunk.

        Returns the candidates the index sketch proved hopeless: each is
        dropped before the walk and counted once in ``index_skips``.
        """
        min_counts = self.min_counts
        state = ScrubState(result, limit=limit, gap=self.gap)
        candidates = np.asarray(candidate_order, dtype=np.int64)
        pruned = candidates[:0]
        if context.index_view is not None:
            # Where a class's range max_count is below its minimum no frame
            # can be accepted, and acceptance depends only on earlier
            # acceptances: dropping such frames leaves the hits unchanged (I7).
            hopeless = context.index_view.sketch.fails_min_counts(
                candidates, min_counts
            )
            pruned = candidates[hopeless]
            candidates = candidates[~hopeless]
            ledger.record_index_skip(pruned.size)
        position = 0
        while position < candidates.size and not state.satisfied:
            if control.should_stop(ledger):
                break
            # Chunks are trimmed to the remaining hit budget as well as the
            # detector budget: a run with a tighter LIMIT can never spend
            # more detector calls than one with a looser LIMIT, and each
            # chunk can waste at most (remaining limit - 1) prefetched
            # detections.
            allowance = min(control.batch_allowance(ledger), limit - state.hits)
            chunk: list[int] = []
            while position < candidates.size and len(chunk) < allowance:
                frame = int(candidates[position])
                position += 1
                if state.eligible(frame):
                    chunk.append(frame)
            if not chunk:
                continue
            batch = context.detect_batch(chunk, ledger)
            passes = np.ones(len(chunk), dtype=np.bool_)
            for object_class, min_count in min_counts.items():
                passes &= batch.class_counts(object_class) >= min_count
            for frame, passed in zip(chunk, passes.tolist(), strict=True):
                if state.satisfied:
                    break
                if not state.eligible(frame):
                    continue
                verified = state.examine(frame, passed)
                if verified:
                    yield ScrubbingHit(
                        frame_index=frame,
                        timestamp=context.video.timestamp_of(frame),
                        hits_so_far=state.hits,
                        limit=limit,
                    )
            yield Progress(
                phase="verification",
                frames_scanned=ledger.frames_decoded,
                detector_calls=ledger.detector_calls,
                total_frames=context.video.num_frames,
            )
        return pruned
