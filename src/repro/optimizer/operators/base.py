"""Physical operator base: composable, stream-compatible plan stages.

A :class:`PhysicalOperator` is one reusable stage of a physical plan — a
detection scan, a sampler, a filter cascade, a verifier.  Operators expose
generator methods that yield the same typed
:class:`~repro.core.events.ExecutionEvent` objects as plan ``_stream``
implementations (and return their stage result via ``StopIteration.value``),
so plans compose them with ``yield from`` without changing the streaming
protocol, chunked batching, or early-termination semantics.

Operators hold only query parameters: all execution state (video, detector,
ledger, RNG) arrives through the :class:`~repro.core.context.ExecutionContext`
and :class:`~repro.core.events.ExecutionControl` at stream time, which is what
makes one operator instance reusable across executions.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, ClassVar, ContextManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import ExecutionContext
    from repro.metrics.runtime import RuntimeLedger


class PhysicalOperator:
    """Base class for the composable operator library."""

    #: Operator name as shown in operator trees and the README catalog.
    name: ClassVar[str] = "PhysicalOperator"

    def describe(self) -> str:
        """Human-readable one-line description of the operator."""
        return self.name

    def traced(
        self,
        context: "ExecutionContext",
        ledger: "RuntimeLedger | None" = None,
    ) -> ContextManager[Any]:
        """A span covering this operator's work in one execution.

        Plans wrap each operator invocation in ``with op.traced(context,
        ledger):`` — when the context carries no tracer (the default) this is
        a shared no-op context manager; when tracing is on, the span records
        the operator's wall time and, given the execution ledger, its actual
        charged detector calls for EXPLAIN ANALYZE.  The ``with`` form
        guarantees the span closes on every exception path.
        """
        tracer = context.tracer
        if tracer is None:
            return nullcontext()
        return tracer.operator_span(self.name, ledger)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
