"""The streaming execution protocol: typed events, stop conditions, streams.

Every physical plan executes as a pull-based stream of typed
:class:`ExecutionEvent` objects rather than a single blocking call:

* :class:`Progress` — frames scanned and detector calls so far, per phase;
* :class:`EstimateUpdate` — the running AQP estimate and its CI half-width;
* :class:`ScrubbingHit` — one verified frame, emitted the moment it is found;
* :class:`SelectionWindow` — one contiguous window of matched frames;
* :class:`Completed` — the terminal event carrying the full
  :class:`~repro.core.results.QueryResult` (blocking ``execute()`` is defined
  as "drain the stream and return this result").

Execution is steered by an :class:`ExecutionControl`, which carries the typed
:class:`StopConditions` (``limit``, ``ci_width``, ``max_detector_calls``) and
the cooperative cancellation flag that :meth:`ExecutionStream.cancel` sets.
Plans check the control at every batch boundary, so cancellation and budget
exhaustion still produce a well-formed partial result and a terminal
``Completed`` event.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import ClassVar

from repro.core.results import QueryResult
from repro.errors import ConfigurationError, ExecutionError
from repro.metrics.runtime import ExecutionLedger
from repro.stopping import NO_STOP, CancellationToken, StopConditions
from repro.wire import Tagged

__all__ = [
    "ExecutionEvent",
    "Progress",
    "ShardProgress",
    "EstimateUpdate",
    "ScrubbingHit",
    "SelectionWindow",
    "Completed",
    "StopConditions",
    "NO_STOP",
    "CancellationToken",
    "DEFAULT_BATCH_SIZE",
    "ExecutionControl",
    "ExecutionStream",
    "event_wire_types",
]


@dataclass(frozen=True)
class ExecutionEvent(Tagged):
    """Base class of every event a plan's stream can yield.

    ``wire_name`` is the event's stable type tag on the wire: the query
    service (:mod:`repro.service.protocol`) serialises events under it, and
    SSE consumers receive it as the ``event:`` field.  Renaming one is a
    wire-protocol break, not a refactor.  Every subclass must define its own
    (:class:`~repro.wire.Tagged` raises ``TypeError`` at the class statement
    otherwise) and is thereby registered.  The tag travels in the envelope
    (``{"v", "event", "data"}``); the event's fields are the ``data`` object.
    """

    wire_name: ClassVar[str]


@dataclass(frozen=True)
class Progress(ExecutionEvent):
    """Periodic progress report: how much work the plan has done so far.

    Attributes
    ----------
    phase:
        Which stage of the plan is running (e.g. ``"detection_scan"``,
        ``"train_specialized_nn"``, ``"verification"``).
    frames_scanned:
        Distinct frames decoded so far in this execution.
    detector_calls:
        Object-detector invocations charged so far in this execution.
    total_frames:
        Size of the frame population being processed, when known.
    """

    wire_name: ClassVar[str] = "progress"

    phase: str
    frames_scanned: int = 0
    detector_calls: int = 0
    total_frames: int | None = None


@dataclass(frozen=True)
class ShardProgress(ExecutionEvent):
    """Progress of one shard worker under parallel execution.

    Emitted by the parallel stream merger (interleaved with the driving
    plan's own events, in worker-arrival order) so consumers can watch the
    per-shard prefetch pipeline advance.  Informational only: shard progress
    never carries result data and is excluded from the execution ledger's
    event counters, keeping parallel and sequential ledgers comparable.
    """

    wire_name: ClassVar[str] = "shard_progress"

    shard: int
    start_frame: int
    end_frame: int
    frames_computed: int
    shard_frames: int
    done: bool = False


@dataclass(frozen=True)
class EstimateUpdate(ExecutionEvent):
    """Running AQP estimate after one sampling round.

    ``estimate`` and ``half_width`` are both in the query's own units
    (``FCOUNT`` per-frame mean or ``COUNT`` total), so ``estimate ±
    half_width`` is always the confidence interval at the query's confidence
    level.  ``StopConditions.ci_width`` is compared in these same units.
    """

    wire_name: ClassVar[str] = "estimate_update"

    estimate: float
    half_width: float
    samples_used: int
    confidence: float


@dataclass(frozen=True)
class ScrubbingHit(ExecutionEvent):
    """One detector-verified frame satisfying the scrubbing predicate."""

    wire_name: ClassVar[str] = "scrubbing_hit"

    frame_index: int
    timestamp: float
    hits_so_far: int
    limit: int


@dataclass(frozen=True)
class SelectionWindow(ExecutionEvent):
    """One contiguous window of frames matching the selection predicate."""

    wire_name: ClassVar[str] = "selection_window"

    start_frame: int
    end_frame: int
    matched_frames: int
    windows_so_far: int


@dataclass(frozen=True)
class Completed(ExecutionEvent):
    """Terminal event: the execution finished and produced ``result``.

    ``stop_reason`` is ``None`` for a natural completion, otherwise the stop
    condition that terminated execution early (``"limit"``, ``"ci_width"``,
    ``"max_detector_calls"`` or ``"cancelled"``).
    """

    wire_name: ClassVar[str] = "completed"

    result: QueryResult
    stop_reason: str | None = None


def event_wire_types() -> dict[str, type[ExecutionEvent]]:
    """Every concrete event class keyed by its :attr:`~ExecutionEvent.wire_name`.

    A copy of the registry that defining an event class fills in, so a new
    event type is picked up by :mod:`repro.service.protocol` automatically.
    """
    return dict(ExecutionEvent.wire_types)


#: Events/frames a plan processes between control checks and progress events.
DEFAULT_BATCH_SIZE = 64


class ExecutionControl:
    """Mutable per-execution control block shared by a plan and its stream.

    Carries the typed stop conditions, the batch size at which plans emit
    progress and re-check termination, and the cooperative cancellation flag.
    Plans call the query methods at batch boundaries and finalise a partial
    result when any of them fires; the winning condition is recorded in
    :attr:`stop_reason` and surfaced on the terminal :class:`Completed` event.
    """

    def __init__(
        self,
        stop: StopConditions | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cancellation: CancellationToken | None = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.stop = stop if stop is not None else NO_STOP
        self.batch_size = batch_size
        self.stop_reason: str | None = None
        # A thread-safe token rather than a bare flag: under parallel
        # execution the same token is watched by every shard worker, so one
        # cancel (or a LIMIT satisfied across shards) stops them all.
        self.cancellation = cancellation if cancellation is not None else CancellationToken()

    def cancel(self) -> None:
        """Request cooperative cancellation (honoured at the next batch boundary)."""
        self.cancellation.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self.cancellation.is_set()

    # -- condition queries (plans call these at batch boundaries) ------------------

    def effective_limit(self, plan_limit: int) -> int:
        """The query's limit tightened by the stop conditions' ``limit``."""
        if self.stop.limit is None:
            return plan_limit
        return min(plan_limit, self.stop.limit)

    def batch_allowance(self, ledger: ExecutionLedger) -> int:
        """The batch size, shrunk so one batch cannot overshoot the budget."""
        if self.stop.max_detector_calls is None:
            return self.batch_size
        remaining = self.stop.max_detector_calls - ledger.detector_calls
        return max(1, min(self.batch_size, remaining))

    def out_of_budget(self, ledger: ExecutionLedger) -> bool:
        """Whether the detector-call budget has been exhausted."""
        return (
            self.stop.max_detector_calls is not None
            and ledger.detector_calls >= self.stop.max_detector_calls
        )

    def ci_reached(self, half_width: float) -> bool:
        """Whether the CI half-width satisfies the ``ci_width`` stop condition."""
        return self.stop.ci_width is not None and half_width <= self.stop.ci_width

    def should_stop(
        self, ledger: ExecutionLedger, half_width: float | None = None
    ) -> bool:
        """Check every applicable condition, recording the first that fires."""
        if self.cancelled:
            self.note_stop("cancelled")
            return True
        if self.out_of_budget(ledger):
            self.note_stop("max_detector_calls")
            return True
        if half_width is not None and self.ci_reached(half_width):
            self.note_stop("ci_width")
            return True
        return False

    def note_stop(self, reason: str) -> None:
        """Record the stop condition that terminated execution (first one wins)."""
        if self.stop_reason is None:
            self.stop_reason = reason


class ExecutionStream:
    """Iterator over a plan's execution events, with cooperative cancellation.

    Obtained from :meth:`repro.api.session.PreparedQuery.stream` (or
    ``QuerySession.stream``).  Iterating pulls events lazily — the underlying
    plan only does work when the next event is requested.  The terminal
    :class:`Completed` event's result is captured in :attr:`result`, and
    :meth:`drain` consumes the whole stream and returns it, which is exactly
    how blocking execution is implemented.
    """

    def __init__(
        self, events: Iterator[ExecutionEvent], control: ExecutionControl, workers: int
    ) -> None:
        self._events = events
        self.control = control
        #: Worker count this execution was routed to (1 = sequential): what
        #: the optimizer decided, not what the hints requested.
        self.workers = workers
        self._result: QueryResult | None = None
        self._stop_reason: str | None = None
        self._finished = False

    def __iter__(self) -> ExecutionStream:
        return self

    def __next__(self) -> ExecutionEvent:
        event = next(self._events)
        if isinstance(event, Completed):
            self._result = event.result
            self._stop_reason = event.stop_reason
            self._finished = True
        return event

    # -- control -------------------------------------------------------------------

    def cancel(self) -> None:
        """Request cancellation; the next batch boundary finalises a partial result."""
        self.control.cancel()

    def close(self) -> None:
        """Dispose of the underlying generator without finishing the execution."""
        closer = getattr(self._events, "close", None)
        if closer is not None:
            closer()
        self._finished = True

    # -- consumption helpers -------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether the terminal event has been seen (or the stream was closed)."""
        return self._finished

    @property
    def result(self) -> QueryResult | None:
        """The terminal result, once :class:`Completed` has been consumed."""
        return self._result

    @property
    def stop_reason(self) -> str | None:
        """Why execution stopped early, or ``None`` for a natural completion."""
        return self._stop_reason

    def drain(self) -> QueryResult:
        """Consume every remaining event and return the terminal result.

        This is the definition of blocking execution: ``prepared.execute()``
        is exactly ``prepared.stream().drain()``, so streamed and blocking
        results are identical by construction.
        """
        for _ in self:
            pass
        if self._result is None:
            raise ExecutionError(
                "execution stream finished without a Completed event"
            )
        return self._result

    def until(
        self, predicate: Callable[[ExecutionEvent], bool]
    ) -> list[ExecutionEvent]:
        """Consume events until ``predicate`` matches one, then cancel and drain.

        Returns every event consumed, including the matching one and the
        terminal :class:`Completed` produced by the cancellation.  This is the
        ``stop_when`` escape hatch for conditions the typed
        :class:`StopConditions` cannot express.
        """
        consumed: list[ExecutionEvent] = []
        for event in self:
            consumed.append(event)
            if isinstance(event, Completed):
                return consumed
            if predicate(event):
                self.cancel()
                break
        for event in self:
            consumed.append(event)
        return consumed

