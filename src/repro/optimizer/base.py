"""Physical plan interface: the pull-based streaming execution protocol.

Every plan executes as a generator of typed
:class:`~repro.core.events.ExecutionEvent` objects (``Progress``,
``EstimateUpdate``, ``ScrubbingHit``, ``SelectionWindow``, terminated by a
single ``Completed`` carrying the full result).  Three consumption styles are
built on the one abstract hook ``_stream``:

* :meth:`PhysicalPlan.run` — the raw event generator (used by
  ``session.stream()``);
* :meth:`PhysicalPlan.open` — a :class:`PlanCursor` with explicit
  ``next_batch()`` / ``close()`` for pull-based executors;
* :meth:`PhysicalPlan.execute` — blocking execution, defined as draining the
  stream and returning the terminal result, so blocking and streamed results
  are identical by construction.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.context import ExecutionContext
from repro.core.events import (
    DEFAULT_BATCH_SIZE,
    Completed,
    ExecutionControl,
    ExecutionEvent,
    timed_stream,
)
from repro.core.results import OperatorNode, QueryResult
from repro.errors import ExecutionError
from repro.metrics.runtime import StandardCosts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import VideoStatistics
    from repro.optimizer.cost import PlanDecision


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cost of one physical plan (or one operator), pre-execution.

    Detector invocations dominate every realistic query, so they are tracked
    both as a count (the unit the paper reasons in) and as simulated seconds;
    the remaining buckets separate specialization training, specialized-NN
    inference and simple-filter passes so explanations can show where the
    non-detector time goes.
    """

    detector_calls: int = 0
    detector_seconds: float = 0.0
    training_seconds: float = 0.0
    inference_seconds: float = 0.0
    filter_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total estimated simulated runtime."""
        return (
            self.detector_seconds
            + self.training_seconds
            + self.inference_seconds
            + self.filter_seconds
        )

    def describe(self) -> str:
        """Compact human-readable form used by plan explanations."""
        return f"~{self.detector_calls} detector calls, ~{self.total_seconds:.2f}s"


class PhysicalPlan(abc.ABC):
    """A runnable execution strategy for one query."""

    #: The optimizer's record of why this plan was chosen (``None`` for plans
    #: built outside the optimizer): ``explain()``, EXPLAIN ANALYZE and
    #: routed parallelism read it instead of re-deriving the choice.
    decision: PlanDecision | None = None

    @abc.abstractmethod
    def _stream(
        self, context: ExecutionContext, control: ExecutionControl
    ) -> Iterator[ExecutionEvent]:
        """Yield execution events, ending with exactly one ``Completed``.

        Implementations check ``control`` at every batch boundary (stop
        conditions, cooperative cancellation) and always finalise a
        well-formed — possibly partial — result.
        """

    def _default_control(self) -> ExecutionControl:
        """A fresh control honouring the plan's hints (chunk size only)."""
        hints = getattr(self, "hints", None)
        batch_size = getattr(hints, "batch_size", None)
        return ExecutionControl(
            batch_size=batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
        )

    def run(
        self, context: ExecutionContext, control: ExecutionControl | None = None
    ) -> Iterator[ExecutionEvent]:
        """The plan's event stream, with per-execution ledger bookkeeping."""
        return timed_stream(
            self._stream(context, control or self._default_control())
        )

    def open(
        self, context: ExecutionContext, control: ExecutionControl | None = None
    ) -> PlanCursor:
        """Open a pull-based cursor over the plan's event stream."""
        control = control or self._default_control()
        return PlanCursor(self.run(context, control), control)

    def execute(
        self, context: ExecutionContext, control: ExecutionControl | None = None
    ) -> QueryResult:
        """Execute the plan to completion by draining its event stream."""
        result: QueryResult | None = None
        for event in self.run(context, control):
            if isinstance(event, Completed):
                result = event.result
        if result is None:
            raise ExecutionError(
                f"{type(self).__name__} finished without a Completed event"
            )
        return result

    def describe(self) -> str:
        """Human-readable description of the plan."""
        return type(self).__name__

    def operator_tree(
        self,
        num_frames: int | None = None,
        stats: VideoStatistics | None = None,
    ) -> OperatorNode:
        """The plan's operator tree, for structured explanations.

        Plans that pick their strategy at execution time (e.g. Algorithm 1's
        accuracy gate) report the full decision pipeline rather than the
        branch that will eventually run.  When ``num_frames`` and ``stats``
        are given, nodes carry per-operator cost estimates (detector calls
        and simulated seconds) from the statistics catalog.
        """
        return OperatorNode(name=type(self).__name__)

    def estimate_detector_calls(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> int:
        """Upper estimate of detector invocations over ``num_frames``.

        The contract (checked by the estimate-invariant tests) is that the
        estimate *bounds* the ``detector_calls`` the execution ledger will
        actually record under default statistics.  The conservative default
        is an exhaustive scan; plans tighten it when ``stats`` from the
        statistics catalog make a smaller bound defensible.
        """
        return num_frames

    def estimate_cost(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> CostEstimate:
        """Full cost estimate: detector calls plus specialization overheads.

        The default prices the detector-call estimate at the catalog's
        per-call detector cost (falling back to the paper's Mask R-CNN rate);
        plans with training or filtering stages override to fill the other
        buckets.
        """
        calls = self.estimate_detector_calls(num_frames, stats)
        per_call = (
            stats.detector_seconds_per_call
            if stats is not None
            else StandardCosts.MASK_RCNN.seconds_per_call
        )
        return CostEstimate(detector_calls=calls, detector_seconds=calls * per_call)


class PlanCursor:
    """Explicit ``open()/next_batch()/close()`` adapter over a plan's stream.

    The cursor form of the streaming protocol, for executors that pull work
    in discrete steps rather than iterating a generator.  ``next_batch``
    returns up to ``max_events`` events (default: the control's batch size)
    and an empty list once the stream is exhausted.
    """

    def __init__(
        self, events: Iterator[ExecutionEvent], control: ExecutionControl
    ) -> None:
        self._events = events
        self.control = control
        self._exhausted = False
        self._result: QueryResult | None = None

    @property
    def result(self) -> QueryResult | None:
        """The terminal result, once the ``Completed`` event has been pulled."""
        return self._result

    @property
    def exhausted(self) -> bool:
        """Whether the underlying stream has ended."""
        return self._exhausted

    def next_batch(self, max_events: int | None = None) -> list[ExecutionEvent]:
        """Pull up to ``max_events`` events; empty list means the stream ended."""
        if self._exhausted:
            return []
        count = max_events if max_events is not None else self.control.batch_size
        if count < 1:
            raise ValueError(f"max_events must be >= 1, got {count}")
        batch: list[ExecutionEvent] = []
        for event in self._events:
            batch.append(event)
            if isinstance(event, Completed):
                self._result = event.result
                self._exhausted = True
                break
            if len(batch) >= count:
                break
        else:
            self._exhausted = True
        return batch

    def close(self) -> None:
        """Cancel the execution and dispose of the underlying generator."""
        self.control.cancel()
        closer = getattr(self._events, "close", None)
        if closer is not None:
            closer()
        self._exhausted = True
