"""Tenant, session and query registries for the query service.

The :class:`ServiceManager` is the transport-free heart of the service: it
owns one :class:`~repro.core.engine.BlazeIt` engine and exposes the whole
multi-tenant lifecycle — create tenants with detector-call quotas, open
engine sessions for them, prepare queries, submit executions through
admission control to the fair scheduler, stream serialized events out of an
:class:`EventLog`, cancel, and collect results.  The HTTP layer
(:mod:`repro.service.app`) is a thin shell over this class; every behaviour
worth testing is testable here without sockets.

Determinism contract: submitting a query draws its RNG stream *at admission
time* (``PreparedQuery.stream`` draws the seed eagerly and works lazily), so
for a fixed engine seed the results a client observes over the wire are
byte-identical to what the same sequence of ``session()`` / ``prepare()`` /
``execute()`` calls produces in process — regardless of how the scheduler
interleaves the actual work.

Quota contract: each tenant carries a cumulative detector-call budget.
Usage is charged from the terminal result's ``ExecutionLedger`` (the same
accounting every in-process caller sees), and enforcement happens at
admission: a tenant at or over budget gets a typed
:class:`QuotaExceededError` while other tenants are untouched.  Budgets are
deliberately *not* translated into per-query stop conditions — that would
change query results, breaking the byte-identity contract.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro import wire
from repro.core.events import Completed, ExecutionStream
from repro.errors import BlazeItError
from repro.obs.metrics import get_registry
from repro.service.protocol import dumps_with, event_to_json, hints_from_json
from repro.service.scheduler import FairScheduler
from repro.sync import Guarded

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.hints import QueryHints, StopConditions
    from repro.api.session import PreparedQuery, QuerySession
    from repro.core.engine import BlazeIt
    from repro.core.results import QueryResult


class ServiceError(BlazeItError):
    """Base class for service-layer rejections (carries an HTTP status)."""

    http_status = 500
    code = "service_error"


class QuotaExceededError(ServiceError):
    """The tenant's cumulative detector-call budget is exhausted (HTTP 429)."""

    http_status = 429
    code = "quota_exceeded"


class AdmissionRejectedError(ServiceError):
    """The service's bounded queue (or tenant concurrency cap) is full (HTTP 503)."""

    http_status = 503
    code = "admission_rejected"


class NotFoundError(ServiceError):
    """The referenced tenant/session/query does not exist (HTTP 404)."""

    http_status = 404
    code = "not_found"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource limits.

    ``max_detector_calls`` bounds the *cumulative* charged detector
    invocations across all of the tenant's completed queries;
    ``max_active_queries`` bounds how many of the tenant's queries may be
    queued or running at once.  ``None`` means unlimited.
    """

    max_detector_calls: int | None = None
    max_active_queries: int | None = None


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for the service: executor capacity, admission bounds, defaults."""

    #: Executor slot count.  A query consumes one slot per worker its
    #: execution was routed to (``ExecutionStream.workers``, clamped to the
    #: total): what the optimizer decided, which a ``parallelism`` hint only
    #: bounds from above.
    slots: int = 4
    #: Bound on queries waiting for a slot, across all tenants.  Submissions
    #: beyond it get a typed :class:`AdmissionRejectedError`.  Also how many
    #: *finished* queries the registry keeps for ``GET /queries/{id}`` and SSE
    #: resume: older ones are forgotten, so memory does not grow with the
    #: number of queries served.
    max_queue_depth: int = 16
    #: Quota applied to tenants created without an explicit one.
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: SSE keep-alive comment interval (used by the HTTP layer; heartbeats
    #: are how client disconnects are detected between events).
    heartbeat_seconds: float = 2.0
    #: Warm-start the engine's shared detection cache and statistics catalog
    #: from the persistent index store at boot (a no-op when the engine was
    #: built without ``index_dir``): a freshly started service answers hot
    #: queries with zero detector calls.
    warm_start_index: bool = True


@dataclass(frozen=True, slots=True)
class LoggedEvent:
    """One event as the log holds it: its wire name and its envelope
    (:func:`~repro.service.protocol.event_to_json`) as JSON text, serialized
    once, when the drainer logs it; every SSE reader writes that text."""

    event: str
    data: str


class _LogState:
    """One log's events and closed flag, reached only under its guard."""

    __slots__ = ("events", "closed")

    def __init__(self) -> None:
        self.events: list[LoggedEvent] = []
        self.closed = False


class EventLog:
    """Append-only, index-addressed log of one query's serialized events.

    SSE streaming and resume are built on this: every appended payload gets
    the next integer index, :meth:`wait_for` blocks until a given index
    exists (or the log closes, or a timeout elapses — the timeout is what
    lets the HTTP layer interleave heartbeats), and a client that
    reconnects with ``Last-Event-ID: n`` simply starts reading at ``n + 1``.
    """

    def __init__(self) -> None:
        self._state = Guarded(_LogState(), condition=True)

    def append(self, payload: LoggedEvent) -> int:
        """Append one serialized event; returns its index."""
        with self._state as s:
            s.events.append(payload)
            self._state.notify_all()
            return len(s.events) - 1

    def close(self) -> None:
        """Mark the log complete; blocked readers wake up and drain."""
        with self._state as s:
            s.closed = True
            self._state.notify_all()

    @property
    def closed(self) -> bool:
        with self._state as s:
            return s.closed

    def __len__(self) -> int:
        with self._state as s:
            return len(s.events)

    def snapshot(self, start: int = 0) -> list[LoggedEvent]:
        """Every event at index >= ``start`` that exists right now."""
        with self._state as s:
            return s.events[start:]

    def wait_for(self, index: int, timeout: float | None = None) -> LoggedEvent | None:
        """Block until event ``index`` exists and return it.

        Returns ``None`` if the log closed before the index was written, or
        on timeout while the log is still open (callers distinguish the two
        via :attr:`closed`).
        """
        with self._state as s:
            self._state.wait_for(lambda: len(s.events) > index or s.closed, timeout)
            if len(s.events) > index:
                return s.events[index]
            return None


#: Query lifecycle states, in order of progression.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
CANCELLED = "cancelled"
FAILED = "failed"


class QueryRecord:
    """One submitted query: its stream, event log, state and terminal result."""

    def __init__(
        self,
        query_id: str,
        tenant_name: str,
        session_id: str,
        text: str,
        stream: ExecutionStream,
        slots: int,
    ) -> None:
        self.query_id = query_id
        self.tenant_name = tenant_name
        self.session_id = session_id
        self.text = text
        #: Released (``None``) once the query is finalised: the log and the
        #: result are all a finished record still serves.
        self.stream: ExecutionStream | None = stream
        self.slots = slots
        self.log = EventLog()
        self.state = QUEUED
        self.result: QueryResult | None = None
        #: The result's JSON text, encoded once by the drainer: the
        #: ``completed`` event on the log and :meth:`status_json` splice it in.
        self.result_text: str | None = None
        self.stop_reason: str | None = None
        self.error: str | None = None
        self.cancel_requested = False
        self.done = threading.Event()
        # Wall-clock lifecycle stamps (satellite S1).  Display-only: they
        # feed the status payload and the metrics registry, never results.
        self.submitted_at: float | None = None  # admission accepted
        self.enqueued_at: float | None = None  # entered the scheduler queue
        self.dispatched_at: float | None = None  # drainer thread started
        self.first_event_at: float | None = None  # first event logged (TTFE)

    # The scheduler keys fairness and serialization off these two:
    @property
    def tenant_key(self) -> str:
        return self.tenant_name

    @property
    def session_key(self) -> str:
        return self.session_id

    @property
    def admission_wait_seconds(self) -> float | None:
        """Admission accepted -> drainer started (queue + slot wait)."""
        if self.submitted_at is None or self.dispatched_at is None:
            return None
        return max(0.0, self.dispatched_at - self.submitted_at)

    @property
    def slot_wait_seconds(self) -> float | None:
        """Scheduler queue entry -> drainer started (pure slot contention)."""
        if self.enqueued_at is None or self.dispatched_at is None:
            return None
        return max(0.0, self.dispatched_at - self.enqueued_at)

    @property
    def ttfe_seconds(self) -> float | None:
        """Admission accepted -> first event on the log (time to first event)."""
        if self.submitted_at is None or self.first_event_at is None:
            return None
        return max(0.0, self.first_event_at - self.submitted_at)

    def status(self) -> dict[str, Any]:
        """JSON-ready status summary (no event payloads)."""
        payload = self._summary()
        if self.result_text is not None:
            payload["result"] = json.loads(self.result_text)
        return payload

    def status_json(self) -> str:
        """``json.dumps(self.status())``, with the result's text spliced in
        instead of decoded and encoded again."""
        payload = self._summary()
        if self.result_text is None:
            return json.dumps(payload)
        payload["result"] = None
        return dumps_with(payload, "result", self.result_text)

    def _summary(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "query_id": self.query_id,
            "tenant": self.tenant_name,
            "session_id": self.session_id,
            "query": self.text,
            "state": self.state,
            "events": len(self.log),
            "slots": self.slots,
            "stop_reason": self.stop_reason,
            "admission_wait_seconds": self.admission_wait_seconds,
            "slot_wait_seconds": self.slot_wait_seconds,
            "ttfe_seconds": self.ttfe_seconds,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class TenantState:
    """A tenant's quota and cumulative usage (reached only through the
    manager's guarded state)."""

    def __init__(self, name: str, quota: TenantQuota) -> None:
        self.name = name
        self.quota = quota
        self.detector_calls_charged = 0
        self.queries_submitted = 0
        self.queries_finished = 0
        self.active_queries = 0

    def status(self) -> dict[str, Any]:
        return {
            "tenant": self.name,
            "quota": wire.encode(self.quota),
            "detector_calls_charged": self.detector_calls_charged,
            "queries_submitted": self.queries_submitted,
            "queries_finished": self.queries_finished,
            "active_queries": self.active_queries,
        }


class SessionRecord:
    """One engine session owned by a tenant, plus its prepared statements."""

    def __init__(
        self, session_id: str, tenant_name: str, session: QuerySession
    ) -> None:
        self.session_id = session_id
        self.tenant_name = tenant_name
        self.session = session
        self.prepared: dict[str, PreparedQuery] = {}
        self._prepared_ids = itertools.count()

    def add_prepared(self, prepared: PreparedQuery) -> str:
        prepared_id = f"{self.session_id}-p{next(self._prepared_ids)}"
        self.prepared[prepared_id] = prepared
        return prepared_id


class _ManagerState:
    """The manager's registries, reached only under its guard."""

    __slots__ = ("tenants", "sessions", "queries", "ids", "closed")

    def __init__(self) -> None:
        self.tenants: dict[str, TenantState] = {}
        self.sessions: dict[str, SessionRecord] = {}
        self.queries: dict[str, QueryRecord] = {}
        self.ids = itertools.count()
        self.closed = False

    def ensure_open(self) -> None:
        if self.closed:
            raise ServiceError("service manager is shut down")

    def tenant(self, name: str) -> TenantState:
        tenant = self.tenants.get(name)
        if tenant is None:
            raise NotFoundError(f"unknown tenant {name!r}")
        return tenant

    def session(self, session_id: str) -> SessionRecord:
        record = self.sessions.get(session_id)
        if record is None:
            raise NotFoundError(f"unknown session {session_id!r}")
        return record


class ServiceManager:
    """Registries + admission control + quota accounting over one engine."""

    def __init__(self, engine: BlazeIt, config: ServiceConfig | None = None) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        # Named ``_lock``: the loop-liveness test holds it from outside.
        self._lock = Guarded(_ManagerState())
        self.warm_start_report: dict[str, Any] | None = None
        if self.config.warm_start_index:
            self.warm_start_report = engine.warm_start()
        self.scheduler = FairScheduler(self.config.slots, self._drain)

    # -- tenants -------------------------------------------------------------------

    def create_tenant(
        self, name: str, quota: TenantQuota | None = None
    ) -> dict[str, Any]:
        """Register a tenant (idempotent only for distinct names)."""
        with self._lock as s:
            s.ensure_open()
            if name in s.tenants:
                raise ServiceError(f"tenant {name!r} already exists")
            tenant = TenantState(name, quota or self.config.default_quota)
            s.tenants[name] = tenant
            return tenant.status()

    def tenant_status(self, name: str) -> dict[str, Any]:
        with self._lock as s:
            return s.tenant(name).status()

    # -- sessions ------------------------------------------------------------------

    def create_session(
        self,
        tenant_name: str,
        video: str | None = None,
        hints: QueryHints | Mapping[str, Any] | None = None,
    ) -> str:
        """Open an engine session for a tenant; returns the session id.

        Sessions are created in request order, which fixes their seed
        sequences: the n-th session the service opens draws the same RNG
        ancestry as the n-th ``engine.session()`` call in process.
        """
        if isinstance(hints, Mapping):
            hints = hints_from_json(dict(hints))
        with self._lock as s:
            s.ensure_open()
            s.tenant(tenant_name)
            session = self.engine.session(video=video, hints=hints)
            session_id = f"s{next(s.ids)}"
            s.sessions[session_id] = SessionRecord(session_id, tenant_name, session)
            return session_id

    def close_session(self, session_id: str) -> None:
        with self._lock as s:
            record = s.session(session_id)
            record.session.close()
            del s.sessions[session_id]

    # -- prepared statements -------------------------------------------------------

    def prepare(
        self,
        session_id: str,
        query: str,
        hints: QueryHints | Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Parse/analyze/plan once inside a session; returns id + plan info."""
        if isinstance(hints, Mapping):
            hints = hints_from_json(dict(hints))
        with self._lock as s:
            s.ensure_open()
            record = s.session(session_id)
            prepared = record.session.prepare(query, hints=hints)
            prepared_id = record.add_prepared(prepared)
            return {
                "prepared_id": prepared_id,
                "session_id": session_id,
                "query": query,
                "kind": prepared.spec.kind.value,
                "plan": prepared.plan.describe(),
            }

    # -- submission / admission ----------------------------------------------------

    def submit(
        self,
        session_id: str,
        query: str | None = None,
        prepared_id: str | None = None,
        hints: QueryHints | Mapping[str, Any] | None = None,
        stop: StopConditions | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> QueryRecord:
        """Admit one query for execution; returns its record immediately.

        Admission order is total (one lock): quota check, queue-depth check,
        then the RNG draw — so a rejected submission consumes no seed and a
        fixed admission order reproduces a fixed result sequence.  Raises
        :class:`QuotaExceededError` (tenant over budget),
        :class:`AdmissionRejectedError` (queue full / tenant concurrency
        cap), or :class:`NotFoundError`.
        """
        if isinstance(hints, Mapping):
            hints = hints_from_json(dict(hints))
        if (query is None) == (prepared_id is None):
            raise ServiceError("submit needs exactly one of query= or prepared_id=")
        with self._lock as s:
            s.ensure_open()
            session_record = s.session(session_id)
            tenant = s.tenant(session_record.tenant_name)
            quota = tenant.quota
            if (
                quota.max_detector_calls is not None
                and tenant.detector_calls_charged >= quota.max_detector_calls
            ):
                get_registry().inc(
                    "repro_quota_rejections_total",
                    labels={"tenant": tenant.name},
                    help="Submissions rejected by an exhausted detector-call quota.",
                )
                raise QuotaExceededError(
                    f"tenant {tenant.name!r} has charged "
                    f"{tenant.detector_calls_charged} detector calls against a "
                    f"budget of {quota.max_detector_calls}"
                )
            if (
                quota.max_active_queries is not None
                and tenant.active_queries >= quota.max_active_queries
            ):
                get_registry().inc(
                    "repro_admission_rejections_total",
                    labels={"reason": "tenant_cap"},
                    help="Submissions rejected at admission (queue full or tenant cap).",
                )
                raise AdmissionRejectedError(
                    f"tenant {tenant.name!r} already has {tenant.active_queries} "
                    f"active queries (cap {quota.max_active_queries})"
                )
            if self.scheduler.queued_count() >= self.config.max_queue_depth:
                get_registry().inc(
                    "repro_admission_rejections_total",
                    labels={"reason": "queue_full"},
                    help="Submissions rejected at admission (queue full or tenant cap).",
                )
                raise AdmissionRejectedError(
                    f"admission queue is full "
                    f"({self.config.max_queue_depth} queries waiting)"
                )
            if prepared_id is not None:
                prepared = session_record.prepared.get(prepared_id)
                if prepared is None:
                    raise NotFoundError(
                        f"unknown prepared query {prepared_id!r} "
                        f"in session {session_id!r}"
                    )
            else:
                assert query is not None
                prepared = session_record.session.prepare(query, hints=hints)
            # The stream draws its seed here, under the admission lock, so
            # RNG ancestry follows admission order exactly.
            stream = prepared.stream(stop=stop, **dict(params or {}))
            slots = max(1, min(stream.workers, self.config.slots))
            record = QueryRecord(
                query_id=f"q{next(s.ids)}",
                tenant_name=tenant.name,
                session_id=session_id,
                text=prepared.text,
                stream=stream,
                slots=slots,
            )
            s.queries[record.query_id] = record
            tenant.queries_submitted += 1
            tenant.active_queries += 1
            record.submitted_at = time.perf_counter()
        self.scheduler.submit(record)
        return record

    # -- execution (scheduler drainer callback) ------------------------------------

    def _drain(self, record: QueryRecord) -> None:
        """Run one admitted query to its terminal state (drainer thread body).

        Pulls the execution stream event by event, appending each event to
        the record's log serialized once, as the JSON text every SSE reader
        writes.  Cancellation is cooperative: once
        requested, the plan finalises a partial result at the next batch
        boundary, the terminal ``Completed`` still flows through the log,
        and the stream is closed — after which not a single further detector
        call can happen (the generator, and under parallel execution every
        shard worker, is gone).
        """
        record.state = RUNNING
        registry = get_registry()
        wait = record.admission_wait_seconds
        if wait is not None:
            registry.observe(
                "repro_admission_wait_seconds",
                wait,
                help="Admission-accepted to drainer-start wait per query.",
            )
        slot_wait = record.slot_wait_seconds
        if slot_wait is not None:
            registry.observe(
                "repro_slot_wait_seconds",
                slot_wait,
                help="Scheduler-queue to drainer-start wait per query.",
            )
        stream = record.stream
        assert stream is not None  # released only by _finalise, below
        try:
            for event in stream:
                envelope = event_to_json(event)
                if isinstance(event, Completed):
                    data = envelope["data"]
                    result_text = json.dumps(data["result"])
                    text = dumps_with(envelope, "data", dumps_with(data, "result", result_text))
                else:
                    text = json.dumps(envelope)
                record.log.append(LoggedEvent(envelope["event"], text))
                if record.first_event_at is None:
                    record.first_event_at = time.perf_counter()
                    ttfe = record.ttfe_seconds
                    if ttfe is not None:
                        registry.observe(
                            "repro_ttfe_seconds",
                            ttfe,
                            help="Admission-accepted to first-event latency per query.",
                        )
                if isinstance(event, Completed):
                    record.result = event.result
                    record.result_text = result_text
                    record.stop_reason = event.stop_reason
        except BlazeItError as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            stream.close()
            del stream  # free it, and its session, before waking a waiter
            self._finalise(record)
            record.log.close()
            record.done.set()

    def _finalise(self, record: QueryRecord) -> None:
        with self._lock as s:
            if record.error is not None:
                record.state = FAILED
            elif record.stop_reason == "cancelled" or (
                record.cancel_requested and record.result is None
            ):
                # A cancel that lands after the query already produced its
                # natural terminal result does not rewrite history: the
                # query is COMPLETED unless the plan itself stopped on the
                # cancellation token.
                record.state = CANCELLED
            else:
                record.state = COMPLETED
            tenant = s.tenants.get(record.tenant_name)
            if tenant is not None:
                tenant.active_queries -= 1
                tenant.queries_finished += 1
                if record.result is not None:
                    tenant.detector_calls_charged += (
                        record.result.execution_ledger.detector_calls
                    )
            record.stream = None
            # The registry keeps the ``max_queue_depth`` most recently
            # finished records (finish order: a record moves to the end of
            # the dict here); a reader that already holds an older one keeps
            # it and streams to the end.
            s.queries[record.query_id] = s.queries.pop(record.query_id)
            finished = [
                query_id
                for query_id, other in s.queries.items()
                if other.state not in (QUEUED, RUNNING)
            ]
            evicted = finished[: max(0, len(finished) - self.config.max_queue_depth)]
            for query_id in evicted:
                del s.queries[query_id]
        if evicted:
            get_registry().inc(
                "repro_query_records_evicted_total",
                len(evicted),
                help="Finished query records dropped from the registry (oldest first).",
            )

    # -- query control -------------------------------------------------------------

    def query(self, query_id: str) -> QueryRecord:
        with self._lock as s:
            record = s.queries.get(query_id)
            if record is None:
                raise NotFoundError(f"unknown query {query_id!r}")
            return record

    def cancel(self, query_id: str) -> QueryRecord:
        """Cancel a query: dequeue it if still queued, else stop it cooperatively.

        For a running query this sets the shared cancellation token (every
        shard worker observes it between detection chunks) and lets the
        drainer collect the partial result; the caller can wait on the
        returned record's ``done`` for the terminal state.
        """
        record = self.query(query_id)
        record.cancel_requested = True
        if self.scheduler.withdraw(record):
            # Never started: no result, no charge, log just closes.
            self._finalise(record)
            record.log.close()
            record.done.set()
            return record
        stream = record.stream
        if stream is not None:  # else already finalised: nothing left to stop
            stream.cancel()
        return record

    # -- lifecycle -----------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Cancel everything queued, stop running queries, join drainers."""
        with self._lock as s:
            s.closed = True
            records = list(s.queries.values())
        for record in records:
            if not record.done.is_set():
                record.cancel_requested = True
                if self.scheduler.withdraw(record):
                    self._finalise(record)
                    record.log.close()
                    record.done.set()
                elif (stream := record.stream) is not None:
                    stream.cancel()
        self.scheduler.shutdown(timeout)

    def status(self) -> dict[str, Any]:
        """Service-wide status summary for the health endpoint."""
        # The index snapshot walks the store's manifests; it takes no manager
        # state, so it is assembled outside the lock.
        index = self.engine.index_status()
        if self.warm_start_report is not None:
            index["warm_start"] = self.warm_start_report
        with self._lock as s:
            return {
                "tenants": len(s.tenants),
                "sessions": len(s.sessions),
                "queries": len(s.queries),
                "slots": self.config.slots,
                "queued": self.scheduler.queued_count(),
                "running": self.scheduler.running_count(),
                "index": index,
                "metrics": get_registry().snapshot(),
            }


__all__ = [
    "ServiceManager",
    "ServiceConfig",
    "TenantQuota",
    "EventLog",
    "LoggedEvent",
    "QueryRecord",
    "ServiceError",
    "QuotaExceededError",
    "AdmissionRejectedError",
    "NotFoundError",
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "CANCELLED",
    "FAILED",
]
