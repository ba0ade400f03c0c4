"""Physical plan interface: the pull-based streaming execution protocol.

Every plan executes as a generator of typed
:class:`~repro.core.events.ExecutionEvent` objects (``Progress``,
``EstimateUpdate``, ``ScrubbingHit``, ``SelectionWindow``, terminated by a
single ``Completed`` carrying the full result), built on the one abstract
hook ``_stream`` and exposed as :meth:`PhysicalPlan.run`.  The plan is only
the event generator: setting up an execution (its context copy, RNG stream,
tracer and parallel prefetch) and its end-of-stream accounting happen in one
place, :meth:`repro.api.session.PreparedQuery.stream`.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.context import ExecutionContext
from repro.core.events import ExecutionControl, ExecutionEvent
from repro.core.results import OperatorNode
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

    def run(
        self, context: ExecutionContext, control: ExecutionControl
    ) -> Iterator[ExecutionEvent]:
        """The plan's raw event stream; the session does the accounting."""
        return self._stream(context, control)

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
        """The plan's price: what the cost-based optimizer chooses on.

        This is the only place a candidate's cost is computed — the optimizer
        enumerates plans and compares these estimates, it prices nothing
        itself.  Unlike :meth:`estimate_detector_calls` (a bound), the price
        is an *expectation*.  The default prices the detector-call bound with
        :func:`detector_cost`; plans whose expected work differs from the
        bound, or that train, infer or filter, override it.
        """
        return detector_cost(self.estimate_detector_calls(num_frames, stats), stats)


def detector_cost(calls: int, stats: VideoStatistics | None) -> CostEstimate:
    """``calls`` detector invocations at the catalog's per-call cost.

    Without statistics the paper's Mask R-CNN rate prices them, so
    explanations still show meaningful magnitudes.
    """
    per_call = (
        stats.detector_seconds_per_call
        if stats is not None
        else StandardCosts.MASK_RCNN.seconds_per_call
    )
    return CostEstimate(detector_calls=calls, detector_seconds=calls * per_call)
