"""Exception hierarchy for the BlazeIt reproduction.

Every error raised by the library derives from :class:`BlazeItError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class BlazeItError(Exception):
    """Base class for all errors raised by this library."""


class FrameQLSyntaxError(BlazeItError):
    """Raised when a FrameQL query cannot be tokenized or parsed.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    position:
        Character offset into the query text where the problem was detected,
        or ``None`` when the position is unknown.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class FrameQLAnalysisError(BlazeItError):
    """Raised when a syntactically valid query is semantically invalid.

    Examples include referencing an unknown column, applying ``GAP`` without
    ``LIMIT``, or using an unregistered UDF.
    """


class UnknownVideoError(BlazeItError):
    """Raised when a query references a video that has not been registered."""


class UnknownUDFError(BlazeItError):
    """Raised when a query references a UDF that is not in the registry."""


class InsufficientTrainingDataError(BlazeItError):
    """Raised when a specialized model cannot be trained.

    The paper requires "sufficient training data" before specialization is
    attempted (Section 6); when there is not enough, the engine falls back to
    traditional AQP rather than raising, but lower-level training APIs raise
    this error so the decision is explicit.
    """


class PlanningError(BlazeItError):
    """Raised when the optimizer cannot produce a plan for a query."""


class ExecutionError(BlazeItError):
    """Raised when a physical plan fails during execution."""


class SpawnExportError(BlazeItError):
    """Raised when an execution context cannot be exported to worker processes.

    The process shard backend rebuilds each worker's context from a picklable
    spec; a detector that will not pickle (a recorded test day among them:
    recordings are driver-only) cannot cross the process boundary.
    Routing catches this and falls back to the thread backend.
    """


class ConfigurationError(BlazeItError):
    """Raised when a configuration object contains invalid values."""


def require_positive_int(name: str, value: object) -> int:
    """``value`` if it is an ``int`` of at least 1, else a ConfigurationError.

    A ``bool`` is an ``int`` to Python but never a count or a size here.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


class QueryParameterError(BlazeItError):
    """Raised when a prepared query is executed with invalid parameters.

    Prepared queries accept only the runtime parameters their query class can
    re-bind without re-planning (e.g. ``error_within`` for aggregates,
    ``limit``/``gap`` for scrubbing); anything else raises this error.
    """
