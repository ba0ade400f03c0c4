"""Typed early-termination conditions for query execution.

This is a dependency-free leaf module: :class:`StopConditions` is shared by
the query-hint layer (:mod:`repro.api.hints`) and the streaming execution
protocol (:mod:`repro.core.events`), which sit on opposite sides of the
core/api package boundary.  Defining it here keeps both imports acyclic.
The canonical public import paths are ``repro.api`` and ``repro.core.events``.

:class:`CancellationToken` lives here for the same reason: it is the
thread-safe cancellation primitive shared by the per-execution
:class:`~repro.core.events.ExecutionControl` and the parallel shard executor
(:mod:`repro.parallel`), whose worker threads must observe a cancel request
(a ``LIMIT`` satisfied across shards, a closed stream) promptly without
importing either package.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sync import Guarded


class CancellationToken:
    """A thread-safe, set-once cooperative cancellation flag.

    One token is shared by everything participating in one query execution:
    the :class:`~repro.core.events.ExecutionControl` the plan checks at batch
    boundaries, and — under parallel execution — every shard worker thread,
    which checks it between detection chunks.  Setting the token is
    irreversible; a cancelled execution always finalises a well-formed
    partial result.

    Observers (the query service's scheduler, for one) can register
    :meth:`on_set` callbacks to be notified the moment cancellation is
    requested, from whichever thread requested it — e.g. to wake a drainer
    that would otherwise only notice the flag at the next batch boundary.
    """

    __slots__ = ("_event", "_callbacks")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._callbacks: Guarded[list[Callable[[], None]]] = Guarded([])

    def set(self) -> None:
        """Request cancellation (idempotent, safe from any thread).

        Registered callbacks fire exactly once, on the first call, in
        registration order, on the calling thread.  A callback that raises
        does not prevent later callbacks from running — exceptions propagate
        to the caller only after every callback has fired.
        """
        with self._callbacks as waiting:
            if self._event.is_set():
                return
            self._event.set()
            callbacks = list(waiting)
            waiting.clear()
        error: BaseException | None = None
        for callback in callbacks:
            try:
                callback()
            # Every callback must run even if one fails; the first error is
            # re-raised once the list is drained.
            except BaseException as exc:  # noqa: B036
                error = exc
        if error is not None:
            raise error

    def on_set(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to run when the token is set.

        If the token is already set the callback runs immediately on the
        registering thread; otherwise it runs on whichever thread calls
        :meth:`set` first.  Each callback fires at most once.
        """
        with self._callbacks as waiting:
            if not self._event.is_set():
                waiting.append(callback)
                return
        callback()

    def is_set(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the token is set, or the timeout elapses."""
        return self._event.wait(timeout)


@dataclass(frozen=True)
class StopConditions:
    """Typed early-termination conditions threaded through every plan.

    Parameters
    ----------
    limit:
        Stop scrubbing/selection executions after this many verified hits /
        matched windows, even if the query's own ``LIMIT`` is larger.
    ci_width:
        Stop aggregate sampling as soon as the CI half-width is at or below
        this value, even if the query's ``ERROR WITHIN`` bound is tighter.
    max_detector_calls:
        Hard budget on charged object-detector invocations for any plan;
        execution finalises a partial result once the budget is reached.
    """

    limit: int | None = None
    ci_width: float | None = None
    max_detector_calls: int | None = None

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 1:
            raise ConfigurationError(f"stop limit must be >= 1, got {self.limit}")
        if self.ci_width is not None and self.ci_width <= 0:
            raise ConfigurationError(
                f"stop ci_width must be positive, got {self.ci_width}"
            )
        if self.max_detector_calls is not None and self.max_detector_calls < 1:
            raise ConfigurationError(
                f"stop max_detector_calls must be >= 1, got {self.max_detector_calls}"
            )

    @property
    def is_noop(self) -> bool:
        """Whether no condition is set (execution runs to natural completion)."""
        return (
            self.limit is None
            and self.ci_width is None
            and self.max_detector_calls is None
        )

    def describe(self) -> str:
        """Compact human-readable form, used by hint/plan descriptions."""
        parts = []
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.ci_width is not None:
            parts.append(f"ci_width<={self.ci_width:g}")
        if self.max_detector_calls is not None:
            parts.append(f"max_detector_calls={self.max_detector_calls}")
        return ", ".join(parts) if parts else "none"


#: The stop-condition set meaning "run to completion".
NO_STOP = StopConditions()
