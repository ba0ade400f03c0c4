"""Span tracer: deterministic ids, wall-clock display times, zero cost off.

The tracer is attached to an :class:`~repro.core.context.ExecutionContext`
(``context.tracer``); every call site checks ``tracer is None`` first (or
goes through :func:`maybe_span`), so a disabled run pays a single attribute
read per span site — no objects, no locks, no clock reads.

**Determinism contract.**  Span *identity* (trace id, span ids, parent
links, names, counter attributes) is a pure function of the execution: the
trace id derives from the execution ``SeedSequence`` spawn path, span ids
from per-parent creation order, worker span ids from shard ids.  Span
*timing* (``wall_start``, ``wall_duration``) is real wall-clock time and is
display-only: analyzer rule RPR008 forbids reading it outside the
observability/service layers, and :func:`repro.service.protocol.result_fingerprint`
excludes the whole profile — so a traced run is byte-identical to an
untraced one.

This module is the sanctioned home for span clock reads (excluded from
RPR001 alongside the service layer).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterator

import numpy as np

from repro.sync import Guarded

#: Shared no-op context manager returned for disabled call sites.
_NULL_SPAN: ContextManager[None] = nullcontext()


@dataclass
class SpanRecord:
    """One recorded span.  Identity fields are deterministic; wall fields
    (``wall_start`` offset from trace origin, ``wall_duration``) are
    display-only and never compared or fed back into results."""

    span_id: str
    parent_id: str | None
    name: str
    wall_start: float = 0.0
    wall_duration: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)


class _TracerState:
    """The recorded spans of one trace, reached only under its guard."""

    __slots__ = ("records", "children", "open")

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        #: Spans created so far under each parent id (the next ordinal).
        self.children: dict[str | None, int] = {}
        self.open = 0


class Tracer:
    """Collects the span tree of one query execution.

    Thread-safe for recording (the driver opens spans; parallel workers ship
    span payloads back over the executor transport and the driver stitches
    them in), but the parent stack is thread-local: only the driver thread
    nests spans directly.
    """

    def __init__(self, trace_id: str = "trace") -> None:
        self.trace_id = trace_id
        self._state = Guarded(_TracerState())
        self._stack = threading.local()
        # Wall origin of the trace; offsets are display-only.
        self._origin = time.perf_counter()  # repro: allow[RPR001]: span wall stamping (display only)

    @classmethod
    def from_seed_sequence(
        cls, seed_sequence: "np.random.SeedSequence | None"
    ) -> "Tracer":
        """Trace id from the execution's seed-sequence spawn path.

        Stable across runs of the same execution (the engine hands each
        execution a deterministic spawn path from its root seed), and never
        wall-clock derived.
        """
        if seed_sequence is None:
            return cls()
        path = ".".join(str(k) for k in seed_sequence.spawn_key) or "root"
        return cls(trace_id=f"seed:{seed_sequence.entropy}/{path}")

    # -- recording -----------------------------------------------------------------

    def _next_id(self, parent_id: str | None) -> str:
        with self._state as s:
            ordinal = s.children.get(parent_id, 0)
            s.children[parent_id] = ordinal + 1
        return f"{parent_id}.{ordinal}" if parent_id else f"s{ordinal}"

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[SpanRecord]:
        """Open a span under the current one; always closes (use ``with``)."""
        parent = getattr(self._stack, "current", None)
        record = SpanRecord(
            span_id=self._next_id(parent),
            parent_id=parent,
            name=name,
            attributes=dict(attributes),
        )
        record.wall_start = (
            time.perf_counter() - self._origin  # repro: allow[RPR001]: span wall stamping (display only)
        )
        with self._state as s:
            s.records.append(record)
            s.open += 1
        self._stack.current = record.span_id
        started = time.perf_counter()  # repro: allow[RPR001]: span wall stamping (display only)
        try:
            yield record
        finally:
            record.wall_duration = (
                time.perf_counter() - started  # repro: allow[RPR001]: span wall stamping (display only)
            )
            self._stack.current = parent
            with self._state as s:
                s.open -= 1

    @contextmanager
    def operator_span(self, name: str, ledger: Any = None) -> Iterator[SpanRecord]:
        """A span around one physical operator's work.

        Snapshots the execution ledger's detector-call counter on entry and
        exit, so the span carries the operator's *actual* charged detector
        calls — the number EXPLAIN ANALYZE reports against the estimate.
        """
        with self.span(name, kind="operator") as record:
            calls_before = ledger.detector_calls if ledger is not None else 0
            try:
                yield record
            finally:
                if ledger is not None:
                    record.attributes["detector_calls"] = (
                        ledger.detector_calls - calls_before
                    )

    def synthetic_span(
        self, name: str, wall_duration: float, **attributes: Any
    ) -> SpanRecord:
        """Record an already-finished span (e.g. prepare-time parse/optimize
        durations replayed into an execution's trace)."""
        parent = getattr(self._stack, "current", None)
        record = SpanRecord(
            span_id=self._next_id(parent),
            parent_id=parent,
            name=name,
            wall_duration=wall_duration,
            attributes=dict(attributes),
        )
        with self._state as s:
            s.records.append(record)
        return record

    def attach_worker_spans(self, payloads: list[dict[str, Any]]) -> None:
        """Stitch shard-worker span payloads (shipped over the executor
        transport) into the tree under the current span.

        Span ids derive from the shard id — stable across runs and across
        thread/process backends.
        """
        parent = getattr(self._stack, "current", None)
        records = []
        for payload in payloads:
            shard_id = int(payload.get("shard_id", 0))
            span_id = f"{parent}.w{shard_id}" if parent else f"w{shard_id}"
            attributes = {
                key: value
                for key, value in payload.items()
                if key not in ("shard_id", "name", "wall_duration")
            }
            attributes["shard_id"] = shard_id
            records.append(
                SpanRecord(
                    span_id=span_id,
                    parent_id=parent,
                    name=str(payload.get("name", "shard_worker")),
                    wall_duration=float(payload.get("wall_duration", 0.0)),
                    attributes=attributes,
                )
            )
        with self._state as s:
            s.records.extend(records)

    # -- reading (observability layer only; see RPR008) ----------------------------

    def records(self) -> list[SpanRecord]:
        """Snapshot of every recorded span, in creation order."""
        with self._state as s:
            return list(s.records)

    def open_spans(self) -> int:
        """Number of spans opened but not yet closed (0 after a clean run —
        the span-leak assertion the wire tests gate on)."""
        with self._state as s:
            return s.open


def maybe_span(tracer: Tracer | None, name: str, **attributes: Any) -> ContextManager[Any]:
    """``tracer.span(...)`` when tracing is on; a shared no-op otherwise."""
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attributes)


def operator_scope(
    context: Any, name: str, ledger: Any = None
) -> ContextManager[Any]:
    """Operator span for an inline plan stage with no operator object.

    Some plan stages (selection's verification loop, predicate evaluation)
    are written inline rather than as :class:`PhysicalOperator` instances but
    still appear as nodes in the operator tree; this gives them the same
    EXPLAIN ANALYZE span as ``op.traced(context, ledger)`` gives real
    operators.  ``name`` must match the operator-tree node name.
    """
    tracer = getattr(context, "tracer", None)
    if tracer is None:
        return _NULL_SPAN
    return tracer.operator_span(name, ledger)


__all__ = ["SpanRecord", "Tracer", "maybe_span", "operator_scope"]
