"""Wire codecs for the query service: events, results, hints <-> JSON.

Everything the service puts on the wire round-trips losslessly through these
functions — the acceptance bar is that a result streamed over HTTP/SSE is
*byte-identical* (in canonical serialized form) to the result the same
session would have produced in process.  Two properties make that hold:

* scalar floats are serialized by :mod:`json` with ``repr`` semantics
  (shortest round-trip), so every IEEE-754 double survives exactly;
* the rows of a selection or exact result travel as columns (protocol v2):
  each numeric column of the :class:`~repro.frameql.records.RecordTable` is
  base64 of its little-endian bytes and is rebuilt bit for bit, and the
  string tables are compacted and sorted, so equal tables encode to equal
  bytes.

No wire type's fields are listed here: every function is a thin call into
:mod:`repro.wire`, which derives the JSON form of an event, result, ledger,
record table or hint set from its type.  Adding a field, a counter, an event
or a result class is a change to that dataclass alone.  What this module
owns is the protocol around the objects: the version tag, the event
envelope, the fingerprint, and the "only what differs from the default"
form of a hint set.

Ledger note: ``wall_seconds`` is real wall-clock time and can never match
across the wire; it is carried for observability but excluded from
:func:`result_fingerprint`, mirroring ``ExecutionLedger``'s own equality
semantics (``compare=False``).
"""

from __future__ import annotations

import json
from typing import Any

from repro import wire
from repro.api.hints import NO_HINTS, QueryHints
from repro.core.events import ExecutionEvent, event_wire_types
from repro.core.results import QueryResult
from repro.errors import ConfigurationError
from repro.metrics.runtime import RuntimeLedger

#: Wire-format version tag stamped onto every serialized event envelope.
PROTOCOL_VERSION = 2


def ledger_to_json(ledger: RuntimeLedger) -> dict[str, Any]:
    """JSON form of a ledger (execution counters included when present)."""
    return wire.encode(ledger)


def ledger_from_json(payload: dict[str, Any]) -> RuntimeLedger:
    """Inverse of :func:`ledger_to_json`."""
    return wire.decode(RuntimeLedger, payload)


def result_to_json(result: QueryResult) -> dict[str, Any]:
    """JSON form of any query result (all four classes plus the base)."""
    return wire.encode(result)


def result_from_json(payload: dict[str, Any]) -> QueryResult:
    """Inverse of :func:`result_to_json`."""
    return wire.decode(QueryResult, payload)


def result_fingerprint(result: QueryResult) -> str:
    """Canonical serialized form of a result, for byte-identity comparisons.

    Exactly the ``compare=False`` fields are left out, at every depth — what
    dataclass equality ignores, the fingerprint ignores.  Today that is
    wall-clock time (``ledger.wall_seconds``: it measures the machine, not
    the query) and the execution profile (its span wall times are
    display-only observability, never part of the result proper), which is
    what makes a traced run byte-identical to an untraced one.
    Two results are "byte-identical over the wire" exactly when their
    fingerprints are equal strings.  A result's rows enter it as their
    canonical column bytes, so equal record tables fingerprint alike and a
    dense result costs one string per column.
    """
    return json.dumps(wire.encode_compared(result), sort_keys=True)


def dumps_with(payload: dict[str, Any], key: str, text: str) -> str:
    """``json.dumps(payload)`` byte for byte, with ``payload[key]`` written as
    ``text``: JSON already serialized, spliced in rather than encoded again
    (and copied once, by the one join)."""
    parts: list[str] = []
    for name, value in payload.items():
        parts += (", ", json.dumps(name), ": ", text if name == key else json.dumps(value))
    return "".join(["{", *parts[1:], "}"])


def event_to_json(event: ExecutionEvent) -> dict[str, Any]:
    """Envelope form of one execution event: ``{"v", "event", "data"}``."""
    return {"v": PROTOCOL_VERSION, "event": event.wire_name, "data": wire.encode(event)}


def event_from_json(payload: dict[str, Any]) -> ExecutionEvent:
    """Inverse of :func:`event_to_json`."""
    name = payload.get("event")
    cls = event_wire_types().get(str(name))
    if cls is None:
        raise ConfigurationError(f"unknown event type {name!r} on the wire")
    return wire.decode(cls, payload.get("data"))


def hints_to_json(hints: QueryHints) -> dict[str, Any]:
    """JSON form of a hint set (only non-default fields are emitted)."""
    default = wire.encode(NO_HINTS)
    return {key: value for key, value in wire.encode(hints).items() if value != default[key]}


def hints_from_json(payload: dict[str, Any] | None) -> QueryHints | None:
    """Build :class:`QueryHints` from a request body (``None`` -> no hints).

    Validation is delegated to the ``QueryHints`` constructor, so a malformed
    hint raises :class:`~repro.errors.ConfigurationError` exactly as it would
    in process; unknown keys — in the hints or in their ``stop_conditions`` —
    are rejected up front with the same error type.
    """
    return None if payload is None else wire.decode(QueryHints, payload)


__all__ = [
    "PROTOCOL_VERSION",
    "dumps_with",
    "event_to_json",
    "event_from_json",
    "result_to_json",
    "result_from_json",
    "result_fingerprint",
    "ledger_to_json",
    "ledger_from_json",
    "hints_to_json",
    "hints_from_json",
]
