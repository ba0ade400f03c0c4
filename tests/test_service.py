"""Service-layer tests: manager, scheduler, wire protocol, cancellation races.

Three layers are exercised:

- **Manager** (no sockets): admission control, quota accounting, fair
  scheduling, per-session serialization.
- **Wire** (real asyncio server on an ephemeral port + the stdlib client):
  results byte-identical to in-process execution, SSE streaming with
  resume, typed HTTP rejections; a held manager lock stalls only the
  requests that need it, never ``/metrics`` or an SSE heartbeat.  The
  synchronous route and SSE-frame methods are also called directly, and the
  source is checked for the shape that keeps the loop free: coroutines only
  in the socket layer, manager state only behind ``run_in_executor``.
- **Cancellation races** (the PR's satellite): N concurrent queries over
  the service, half disconnected mid-stream; after every disconnected
  query reaches its terminal state, the detector's raw computation count
  must equal the sum of every terminal ledger — i.e. not one detector call
  happened after a disconnect — and the surviving queries' results must be
  byte-identical to unperturbed in-process runs.
"""

from __future__ import annotations

import ast
import http.client
import json
import logging
import socket
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api.hints import QueryHints
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.detection.simulated import SimulatedDetector
from repro.errors import BlazeItError
from repro.obs.metrics import get_registry
from repro.service import app as service_app
from repro.service.app import (
    QueryServiceApp,
    ServiceThread,
    _error_payload,
    _EventStream,
    _HttpError,
    _Response,
)
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import (
    CANCELLED,
    COMPLETED,
    QUEUED,
    AdmissionRejectedError,
    EventLog,
    NotFoundError,
    QueryRecord,
    QuotaExceededError,
    ServiceConfig,
    ServiceManager,
    TenantQuota,
)
from repro.service.protocol import result_fingerprint, result_to_json
from repro.video.scenarios import generate_scenario

FRAMES = 200
SCENARIO = "rialto"


def scenario_class() -> str:
    return generate_scenario(SCENARIO, "test", 32).object_class_names[0]


def queries_for(cls: str) -> list[str]:
    return [
        f"SELECT FCOUNT(*) FROM v WHERE class = '{cls}'",
        f"SELECT * FROM v WHERE class = '{cls}'",
        "SELECT * FROM v",
        f"SELECT timestamp FROM v GROUP BY timestamp "
        f"HAVING COUNT(class = '{cls}') >= 1 LIMIT 3 GAP 10",
    ]


class _CountingDetector(SimulatedDetector):
    """Mask R-CNN simulation counting raw detect computations, with latency.

    With a ``gate``, the first batch runs freely and every later one waits
    until the test sets the gate: the query is then provably mid-flight,
    with the first batch's events on its log, for as long as the test needs.
    """

    def __init__(
        self, seconds_per_frame: float = 0.0, gate: threading.Event | None = None
    ) -> None:
        base = SimulatedDetector.mask_rcnn()
        super().__init__(
            name=base.name,
            cost=base.cost,
            noise=base.noise,
            confidence_threshold=base.confidence_threshold,
            supported=base._supported,
            seed=base.seed,
        )
        self.seconds_per_frame = seconds_per_frame
        self.computed = 0
        self.gate = gate
        self._batches = 0
        self._count_lock = threading.Lock()

    def detect_columns(self, video, frame_indices):
        with self._count_lock:
            self._batches += 1
            gated = self.gate is not None and self._batches > 1
        if gated:
            assert self.gate.wait(60.0), "test never released the detector gate"
        with self._count_lock:
            self.computed += len(frame_indices)
        if self.seconds_per_frame:
            time.sleep(self.seconds_per_frame * len(frame_indices))
        return super().detect_columns(video, frame_indices)


def build_engine(
    seed: int = 11, detector: SimulatedDetector | None = None, frames: int = FRAMES
) -> BlazeIt:
    engine = BlazeIt(
        detector=detector or SimulatedDetector.mask_rcnn(),
        config=BlazeItConfig(seed=seed),
    )
    engine.register_video(
        "v", test_video=generate_scenario(SCENARIO, "test", frames)
    )
    return engine


def reference_fingerprints(queries: list[str], seed: int = 11) -> list[str]:
    """One session, queries executed in order — the in-process ground truth."""
    engine = build_engine(seed=seed)
    with engine.session() as session:
        return [
            result_fingerprint(session.prepare(query).execute())
            for query in queries
        ]


# ---------------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------------


class TestEventLog:
    def test_indexing_snapshot_and_wait(self):
        log = EventLog()
        assert log.append({"a": 1}) == 0
        assert log.append({"b": 2}) == 1
        assert log.snapshot() == [{"a": 1}, {"b": 2}]
        assert log.snapshot(1) == [{"b": 2}]
        assert log.wait_for(0, timeout=0.1) == {"a": 1}

    def test_wait_blocks_until_append(self):
        log = EventLog()
        seen = []

        def reader():
            seen.append(log.wait_for(0, timeout=5.0))

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        log.append({"x": 9})
        thread.join(5.0)
        assert seen == [{"x": 9}]

    def test_close_wakes_waiters_with_none(self):
        log = EventLog()
        result = ["sentinel"]

        def reader():
            result[0] = log.wait_for(0, timeout=5.0)

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        log.close()
        thread.join(5.0)
        assert result[0] is None
        assert log.closed

    def test_timeout_returns_none_while_open(self):
        log = EventLog()
        assert log.wait_for(0, timeout=0.05) is None
        assert not log.closed


# ---------------------------------------------------------------------------------
# Manager: identity, quotas, admission
# ---------------------------------------------------------------------------------


class TestResultIdentityProperty:
    """The reproducibility invariant the source rules exist to protect, as one
    property: for every query class the result fingerprint is a pure function
    of (engine seed, query) — neither the parallelism level (1 vs 4) nor the
    execution path (direct session vs service manager) may change a byte.
    """

    KINDS = ["aggregate", "selection", "exact", "scrubbing"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_fingerprint_pure_in_seed_and_query(self, kind):
        query = queries_for(scenario_class())[self.KINDS.index(kind)]
        fingerprints: dict[str, str] = {}
        for parallelism in (1, 4):
            hints = QueryHints(parallelism=parallelism)

            engine = build_engine(seed=11)
            with engine.session() as session:
                result = session.prepare(query, hints=hints).execute()
            fingerprints[f"session/p{parallelism}"] = result_fingerprint(result)

            manager = ServiceManager(build_engine(seed=11), ServiceConfig(slots=4))
            try:
                manager.create_tenant("prop")
                session_id = manager.create_session("prop")
                record = manager.submit(session_id, query=query, hints=hints)
                assert record.done.wait(60.0)
                assert record.state == COMPLETED, record.error
                fingerprints[f"manager/p{parallelism}"] = result_fingerprint(
                    record.result
                )
            finally:
                manager.shutdown()

        assert len(set(fingerprints.values())) == 1, fingerprints


class TestManagerExecution:
    def test_all_query_classes_byte_identical_to_in_process(self):
        cls = scenario_class()
        queries = queries_for(cls)
        refs = reference_fingerprints(queries)
        manager = ServiceManager(build_engine(), ServiceConfig(slots=4))
        try:
            manager.create_tenant("acme")
            session_id = manager.create_session("acme")
            for query, ref in zip(queries, refs, strict=True):
                record = manager.submit(session_id, query=query)
                assert record.done.wait(60.0)
                assert record.state == COMPLETED, record.error
                assert result_fingerprint(record.result) == ref
        finally:
            manager.shutdown()

    def test_event_log_ends_with_completed(self):
        manager = ServiceManager(build_engine(), ServiceConfig(slots=2))
        try:
            manager.create_tenant("t")
            session_id = manager.create_session("t")
            record = manager.submit(session_id, query="SELECT * FROM v")
            assert record.done.wait(60.0)
            events = record.log.snapshot()
            assert events, "no events logged"
            assert events[-1]["event"] == "completed"
            assert record.log.closed
        finally:
            manager.shutdown()

    def test_unknown_entities_raise_not_found(self):
        manager = ServiceManager(build_engine())
        try:
            manager.create_tenant("t")
            with pytest.raises(NotFoundError):
                manager.create_session("ghost")
            with pytest.raises(NotFoundError):
                manager.prepare("nope", "SELECT * FROM v")
            with pytest.raises(NotFoundError):
                manager.query("q999")
        finally:
            manager.shutdown()


class TestQuotas:
    def test_over_budget_tenant_rejected_others_unaffected(self):
        cls = scenario_class()
        aggregate = queries_for(cls)[0]
        manager = ServiceManager(build_engine(), ServiceConfig(slots=2))
        try:
            manager.create_tenant("small", TenantQuota(max_detector_calls=5))
            manager.create_tenant("big")
            small_session = manager.create_session("small")
            big_session = manager.create_session("big")

            first = manager.submit(small_session, query=aggregate)
            assert first.done.wait(60.0)
            charged = manager.tenant_status("small")["detector_calls_charged"]
            assert charged == first.result.execution_ledger.detector_calls
            assert charged > 5  # admission-time check: first query ran whole

            with pytest.raises(QuotaExceededError) as excinfo:
                manager.submit(small_session, query=aggregate)
            assert excinfo.value.http_status == 429

            # The other tenant is untouched by the rejection.
            other = manager.submit(big_session, query=aggregate)
            assert other.done.wait(60.0)
            assert other.state == COMPLETED
        finally:
            manager.shutdown()

    def test_tenant_concurrency_cap_is_admission_rejection(self):
        detector = _CountingDetector(seconds_per_frame=0.003)
        manager = ServiceManager(
            build_engine(detector=detector), ServiceConfig(slots=4)
        )
        try:
            manager.create_tenant("t", TenantQuota(max_active_queries=1))
            session_id = manager.create_session("t")
            record = manager.submit(session_id, query="SELECT * FROM v")
            with pytest.raises(AdmissionRejectedError) as excinfo:
                manager.submit(session_id, query="SELECT * FROM v")
            assert excinfo.value.http_status == 503
            manager.cancel(record.query_id)
            assert record.done.wait(60.0)
        finally:
            manager.shutdown()

    def test_bounded_queue_rejects_when_full(self):
        detector = _CountingDetector(seconds_per_frame=0.003)
        manager = ServiceManager(
            build_engine(detector=detector),
            ServiceConfig(slots=1, max_queue_depth=1),
        )
        try:
            manager.create_tenant("t")
            first_session = manager.create_session("t")
            second_session = manager.create_session("t")
            third_session = manager.create_session("t")
            running = manager.submit(first_session, query="SELECT * FROM v")
            queued = manager.submit(second_session, query="SELECT * FROM v")
            assert queued.state == QUEUED
            with pytest.raises(AdmissionRejectedError):
                manager.submit(third_session, query="SELECT * FROM v")
            manager.cancel(running.query_id)
            manager.cancel(queued.query_id)
            assert running.done.wait(60.0) and queued.done.wait(60.0)
        finally:
            manager.shutdown()


class TestScheduler:
    def test_per_session_queries_are_serialized(self):
        detector = _CountingDetector(seconds_per_frame=0.002)
        manager = ServiceManager(
            build_engine(detector=detector), ServiceConfig(slots=4)
        )
        try:
            manager.create_tenant("t")
            session_id = manager.create_session("t")
            first = manager.submit(session_id, query="SELECT * FROM v")
            second = manager.submit(session_id, query="SELECT * FROM v")
            deadline = time.monotonic() + 10.0
            while first.state == QUEUED and time.monotonic() < deadline:
                time.sleep(0.005)
            # While the first runs, the second must wait for the session.
            assert first.state == "running"
            assert second.state == QUEUED
            assert first.done.wait(60.0) and second.done.wait(60.0)
            assert first.state == COMPLETED and second.state == COMPLETED
        finally:
            manager.shutdown()

    def test_round_robin_interleaves_tenants(self):
        detector = _CountingDetector(seconds_per_frame=0.002)
        manager = ServiceManager(
            build_engine(detector=detector), ServiceConfig(slots=1)
        )
        order: list[str] = []
        original = manager._drain

        def recording_drain(record):
            order.append(record.tenant_name)
            original(record)

        manager._drain = recording_drain
        manager.scheduler._run = recording_drain
        try:
            manager.create_tenant("a")
            manager.create_tenant("b")
            sessions = {
                "a": [manager.create_session("a") for _ in range(2)],
                "b": [manager.create_session("b") for _ in range(2)],
            }
            records = []
            # Tenant a floods first; b's queries must not all wait behind it.
            for tenant in ("a", "a", "b", "b"):
                session = sessions[tenant].pop(0)
                records.append(manager.submit(session, query="SELECT * FROM v"))
            for record in records:
                assert record.done.wait(60.0)
            assert order == ["a", "b", "a", "b"]
        finally:
            manager.shutdown()

    def test_parallel_hints_consume_slots(self):
        manager = ServiceManager(build_engine(), ServiceConfig(slots=4))
        try:
            manager.create_tenant("t")
            session_id = manager.create_session(
                "t", hints={"parallelism": 4}
            )
            record = manager.submit(session_id, query="SELECT * FROM v")
            assert record.slots == 4
            assert record.done.wait(60.0)
            assert record.state == COMPLETED
        finally:
            manager.shutdown()

    def test_routed_sequential_scrub_reserves_one_slot(self):
        # With catalog statistics the optimizer prices an importance-ordered
        # scrub sequential whatever the hint says; the reservation must
        # follow that decision, not hold all four slots for one thread.
        engine = BlazeIt(config=BlazeItConfig(seed=11))
        engine.register_scenario(SCENARIO, num_frames=600)
        engine.record_test_day(SCENARIO)
        assert engine.catalog.get(SCENARIO) is not None
        scrub = queries_for(scenario_class())[3].replace("FROM v", f"FROM {SCENARIO}")
        manager = ServiceManager(engine, ServiceConfig(slots=4))
        try:
            manager.create_tenant("t")
            session_id = manager.create_session(
                "t", video=SCENARIO, hints={"parallelism": 4}
            )
            record = manager.submit(session_id, query=scrub)
            assert record.slots == 1
            assert record.done.wait(60.0)
            assert record.state == COMPLETED
            scan = manager.submit(session_id, query=f"SELECT * FROM {SCENARIO}")
            assert scan.slots == 4
            assert scan.done.wait(60.0)
        finally:
            manager.shutdown()


# ---------------------------------------------------------------------------------
# Wire: HTTP + SSE against a live server
# ---------------------------------------------------------------------------------


@pytest.fixture()
def live_service():
    manager = ServiceManager(
        build_engine(), ServiceConfig(slots=4, heartbeat_seconds=0.25)
    )
    with ServiceThread(manager) as service:
        yield ServiceClient(service.host, service.port), manager


class TestWire:
    def test_results_byte_identical_over_the_wire(self, live_service):
        client, _ = live_service
        cls = scenario_class()
        queries = queries_for(cls)
        refs = reference_fingerprints(queries)
        client.create_tenant("acme")
        session_id = client.create_session("acme")
        for query, ref in zip(queries, refs, strict=True):
            result = client.execute(session_id, query)
            assert result_fingerprint(result) == ref

    def test_prepare_then_execute_prepared(self, live_service):
        client, _ = live_service
        cls = scenario_class()
        client.create_tenant("t")
        session_id = client.create_session("t")
        info = client.prepare(session_id, queries_for(cls)[0])
        assert info["kind"] == "aggregate"
        assert "plan" in info
        result = client.execute(session_id, prepared_id=info["prepared_id"])
        assert result.kind == "aggregate"

    @pytest.mark.parametrize(
        "clause", ["ERROR WITHIN 0.1 AT CONFIDENCE 100%", "ERROR WITHIN 0"]
    )
    def test_out_of_range_accuracy_clause_is_a_400(self, live_service, clause):
        """The analyzer rejects the clause as a library error, so the
        service answers it instead of dropping the connection."""
        client, _ = live_service
        client.create_tenant("t")
        session_id = client.create_session("t")
        query = queries_for(scenario_class())[0]
        with pytest.raises(ServiceClientError) as rejected:
            client.prepare(session_id, f"{query} {clause}")
        assert (rejected.value.status, rejected.value.code) == (
            400,
            "FrameQLAnalysisError",
        )
        assert client.prepare(session_id, query)["kind"] == "aggregate"

    def test_infinite_error_bound_param_is_a_400(self, live_service):
        """Python's ``json`` reads ``Infinity``; the bound it spells is
        refused like any other out-of-range re-binding."""
        client, _ = live_service
        client.create_tenant("t")
        session_id = client.create_session("t")
        query = f"{queries_for(scenario_class())[0]} ERROR WITHIN 0.1"
        with pytest.raises(ServiceClientError) as rejected:
            client.submit(session_id, query=query, params={"error_within": float("inf")})
        assert (rejected.value.status, rejected.value.code) == (
            400,
            "QueryParameterError",
        )
        assert "finite" in str(rejected.value)

    def test_prepare_of_an_unregistered_video_is_a_400(self, live_service):
        client, _ = live_service
        client.create_tenant("t")
        session_id = client.create_session("t")
        for call in (
            lambda: client.prepare(session_id, "SELECT * FROM nope"),
            lambda: client.submit(session_id, query="SELECT * FROM nope"),
        ):
            with pytest.raises(ServiceClientError) as rejected:
                call()
            assert (rejected.value.status, rejected.value.code) == (
                400,
                "UnknownVideoError",
            )

    def test_accuracy_clause_of_another_class_is_a_400(self, live_service):
        client, _ = live_service
        client.create_tenant("t")
        session_id = client.create_session("t")
        selection = queries_for(scenario_class())[1]
        with pytest.raises(ServiceClientError) as rejected:
            client.prepare(session_id, f"{selection} ERROR WITHIN 0.1")
        assert (rejected.value.status, rejected.value.code) == (
            400,
            "FrameQLAnalysisError",
        )
        assert "ERROR WITHIN" in str(rejected.value)

    def test_sse_stream_matches_log_and_resumes(self, live_service):
        client, manager = live_service
        cls = scenario_class()
        client.create_tenant("t")
        session_id = client.create_session("t")
        status = client.submit(session_id, query=queries_for(cls)[3], wait=False)
        query_id = status["query_id"]
        events = list(client.events(query_id))
        assert events
        indices = [index for index, _ in events]
        assert indices == list(range(len(events)))
        assert type(events[-1][1]).__name__ == "Completed"
        # Resume from the middle: identical tail.
        resumed = list(client.events(query_id, start=2))
        assert [index for index, _ in resumed] == indices[2:]
        record = manager.query(query_id)
        assert len(record.log) == len(events)

    def test_registry_forgets_finished_queries_beyond_queue_depth(self):
        """Memory held per served query is bounded by the configured depth:
        the registry keeps the newest ``max_queue_depth`` finished records, a
        forgotten id is a 404, and a reader attached before its record went
        still streams to ``end``."""
        depth = 3
        manager = ServiceManager(
            build_engine(),
            ServiceConfig(slots=2, max_queue_depth=depth, heartbeat_seconds=0.25),
        )

        def evicted() -> float:
            counters = get_registry().snapshot()["counters"]
            return counters.get("repro_query_records_evicted_total", 0.0)

        evicted_before = evicted()
        query = queries_for(scenario_class())[3]
        with ServiceThread(manager) as service:
            client = ServiceClient(service.host, service.port)
            client.create_tenant("t")
            session_id = client.create_session("t")
            oldest = client.submit(session_id, query=query, wait=False)["query_id"]
            reader = client.events(oldest)
            seen = [next(reader)]  # attached: the server holds the record now
            held = manager.query(oldest)
            assert held.done.wait(60.0)

            ids = [oldest]
            for _ in range(3 * depth - 1):
                status = client.submit(session_id, query=query, wait=True)
                assert status["state"] == COMPLETED
                ids.append(status["query_id"])
                assert client.healthz()["queries"] <= depth

            assert client.healthz()["queries"] == depth
            assert evicted() - evicted_before == 2 * depth
            for query_id in ids[:-depth]:
                with pytest.raises(ServiceClientError) as rejected:
                    client.query_status(query_id)
                assert rejected.value.status == 404
                with pytest.raises(ServiceClientError) as rejected:
                    next(client.events(query_id))
                assert rejected.value.status == 404
            with pytest.raises(NotFoundError):
                manager.query(oldest)
            for query_id in ids[-depth:]:
                assert client.query_status(query_id)["state"] == COMPLETED
                events = list(client.events(query_id))
                assert type(events[-1][1]).__name__ == "Completed"

            # The attached reader drains to the terminal marker, and the
            # record it was given still serves its whole log.
            seen.extend(reader)
            assert [index for index, _ in seen] == list(range(len(held.log)))
            assert type(seen[-1][1]).__name__ == "Completed"
            assert held.log.closed and held.stream is None
            assert held.result is not None

    def test_typed_errors_over_the_wire(self, live_service):
        client, _ = live_service
        client.create_tenant("small", max_detector_calls=1)
        session_id = client.create_session("small")
        cls = scenario_class()
        client.execute(session_id, queries_for(cls)[0])  # burns the budget
        with pytest.raises(ServiceClientError) as excinfo:
            client.execute(session_id, queries_for(cls)[0])
        assert excinfo.value.status == 429
        assert excinfo.value.code == "quota_exceeded"
        with pytest.raises(ServiceClientError) as not_found:
            client.query_status("q-missing")
        assert not_found.value.status == 404
        # Parse errors are 400s — from a tenant with budget left, so the
        # quota check (which runs first at admission) does not mask them.
        client.create_tenant("fresh")
        fresh_session = client.create_session("fresh")
        with pytest.raises(ServiceClientError) as bad_query:
            client.execute(fresh_session, "SELEKT nonsense")
        assert bad_query.value.status == 400

    def test_unknown_stop_and_quota_keys_are_400s(self, live_service):
        # Each typo used to be dropped: an unlimited tenant, a query with no budget.
        client, manager = live_service
        with pytest.raises(ServiceClientError) as bad_quota:
            client._request(
                "POST", "/tenants", {"name": "typo", "quota": {"max_detector_cals": 1}}
            )
        assert bad_quota.value.status == 400
        assert "max_detector_calls" in str(bad_quota.value)
        with pytest.raises(NotFoundError):
            manager.tenant_status("typo")
        client.create_tenant("t")
        session_id = client.create_session("t")
        query = {"session": session_id, "query": "SELECT * FROM v"}
        for stop in ({"max_detector_cals": 100}, [100]):
            with pytest.raises(ServiceClientError) as bad_stop:
                client._request("POST", "/queries", {**query, "stop": stop})
            assert bad_stop.value.status == 400
            assert bad_stop.value.code == "ConfigurationError"
        accepted = client._request(
            "POST", "/queries", {**query, "stop": {"max_detector_calls": 5}}
        )
        assert accepted["stop_reason"] == "max_detector_calls"

    def test_delete_cancels_running_query(self):
        detector = _CountingDetector(seconds_per_frame=0.003)
        manager = ServiceManager(
            build_engine(detector=detector),
            ServiceConfig(slots=2, heartbeat_seconds=0.25),
        )
        with ServiceThread(manager) as service:
            client = ServiceClient(service.host, service.port)
            client.create_tenant("t")
            session_id = client.create_session("t")
            status = client.submit(session_id, query="SELECT * FROM v", wait=False)
            query_id = status["query_id"]
            deadline = time.monotonic() + 10.0
            while (
                client.query_status(query_id)["state"] == QUEUED
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            client.cancel(query_id)
            record = manager.query(query_id)
            assert record.done.wait(30.0)
            final = client.query_status(query_id)
            assert final["state"] == CANCELLED
            # Cooperative cancellation still finalises a partial result.
            assert final["stop_reason"] == "cancelled"
            assert "result" in final


class TestLoopLiveness:
    def test_held_manager_lock_stalls_only_the_requests_that_need_it(self):
        """The event loop never waits on the manager: with a thread holding
        ``manager._lock``, ``/metrics`` answers and an open SSE stream keeps
        its heartbeat, while the requests that need the lock queue up and
        complete once it is released."""
        heartbeat = 0.5
        gate = threading.Event()
        manager = ServiceManager(
            build_engine(detector=_CountingDetector(gate=gate)),
            ServiceConfig(slots=2, heartbeat_seconds=heartbeat),
        )
        with ServiceThread(manager) as service:
            client = ServiceClient(service.host, service.port, timeout=10.0)
            client.create_tenant("t")
            session_id = client.create_session("t")
            # Held after its first batch: the stream stays open, event-less.
            query_id = client.submit(session_id, query="SELECT * FROM v")["query_id"]
            sse = http.client.HTTPConnection(service.host, service.port, timeout=10.0)
            queued: dict[str, object] = {}
            waiters = [
                threading.Thread(
                    target=lambda: queued.update(healthz=client.healthz())
                ),
                threading.Thread(
                    target=lambda: queued.update(tenant=client.create_tenant("u"))
                ),
            ]
            try:
                sse.request("GET", f"/queries/{query_id}/events")
                response = sse.getresponse()
                assert response.status == 200
                with manager._lock:
                    for waiter in waiters:
                        waiter.start()
                    assert "# TYPE" in client.metrics()
                    last = time.monotonic()
                    keep_alives = 0
                    while keep_alives < 3:
                        line = response.readline()
                        assert line, "SSE stream closed while the query runs"
                        if line.startswith(b": keep-alive"):
                            now = time.monotonic()
                            assert now - last <= 2 * heartbeat, now - last
                            last = now
                            keep_alives += 1
                    assert all(waiter.is_alive() for waiter in waiters)
                    assert not queued
                for waiter in waiters:
                    waiter.join(10.0)
                    assert not waiter.is_alive()
                assert queued["healthz"]["queries"] == 1
                assert queued["tenant"]["tenant"] == "u"
            finally:
                gate.set()
                sse.close()
            assert manager.query(query_id).done.wait(30.0)


# ---------------------------------------------------------------------------------
# The route layer, called the way the loop's executor calls it
# ---------------------------------------------------------------------------------


@pytest.fixture()
def direct_app():
    """The HTTP adapter with no server: a tenant ``t``, one open session and
    one finished query, and the app whose synchronous methods the tests call
    from their own thread — exactly what the loop hands its executor."""
    manager = ServiceManager(
        build_engine(), ServiceConfig(slots=2, heartbeat_seconds=0.05)
    )
    try:
        manager.create_tenant("t")
        session_id = manager.create_session("t")
        record = manager.submit(session_id, query="SELECT * FROM v")
        assert record.done.wait(60.0)
        yield QueryServiceApp(manager), manager, session_id, record.query_id
    finally:
        manager.shutdown()


def route(app, method, target, body=b"", headers=None):
    return app._route(method, target, headers or {}, body)


def rejection(app, method, target, body=b""):
    """The (status, error code) the connection handler writes for a request
    whose route raises."""
    try:
        route(app, method, target, body)
    except _HttpError as exc:
        return exc.status, exc.code
    except BlazeItError as exc:
        status, payload = _error_payload(exc)
        return status, payload["error"]
    raise AssertionError(f"{method} {target} answered")


def _detached_record(query_id: str = "q-detached") -> QueryRecord:
    """A record owned by no manager, its log driven by the test."""
    return QueryRecord(query_id, "t", "s0", "SELECT * FROM v", stream=None, slots=1)


#: One request per row of the HTTP surface but the SSE one, which resolves
#: to a stream instead (below): ``(method, target, body, status)``, where
#: ``{session}`` / ``{query}`` name the fixture's session and finished query.
SURFACE = [
    ("GET", "/healthz", "", 200),
    ("GET", "/metrics", "", 200),
    ("POST", "/tenants", '{"name": "u", "quota": {"max_detector_calls": 9}}', 200),
    ("POST", "/sessions", '{"tenant": "t", "hints": {"parallelism": 1}}', 200),
    ("DELETE", "/sessions/{session}", "", 200),
    ("POST", "/sessions/{session}/prepare", '{"query": "SELECT * FROM v"}', 200),
    ("POST", "/queries", '{"session": "{session}", "query": "SELECT * FROM v"}', 200),
    (
        "POST",
        "/queries",
        '{"session": "{session}", "query": "SELECT * FROM v", "wait": false}',
        202,
    ),
    ("GET", "/queries/{query}", "", 200),
    ("DELETE", "/queries/{query}", "", 200),
]


class TestRoutesOffTheLoop:
    """Every route is one plain synchronous call that returns finished bytes:
    nothing the loop does afterwards touches the manager or a record."""

    @pytest.mark.parametrize(
        "method, target, body, status",
        SURFACE,
        ids=[
            "GET-healthz", "GET-metrics", "POST-tenants", "POST-sessions",
            "DELETE-session", "POST-prepare", "POST-queries",
            "POST-queries-nowait", "GET-query", "DELETE-query",
        ],
    )
    def test_route_returns_an_encoded_response(
        self, direct_app, method, target, body, status
    ):
        app, _, session_id, query_id = direct_app
        target = target.format(session=session_id, query=query_id)
        body = body.replace("{session}", session_id).encode()
        response = route(app, method, target, body)
        assert isinstance(response, _Response)
        assert response.status == status
        assert isinstance(response.body, bytes)
        if target == "/metrics":
            assert response.content_type.startswith("text/plain")
            assert "# TYPE" in response.body.decode()
        else:
            assert response.content_type == "application/json"
            assert isinstance(json.loads(response.body), dict)

    def test_query_status_route_is_the_record_status(self, direct_app):
        app, manager, _, query_id = direct_app
        response = route(app, "GET", f"/queries/{query_id}")
        assert json.loads(response.body) == json.loads(
            json.dumps(manager.query(query_id).status())
        )

    def test_query_status_reuses_the_completed_payload(self, direct_app, monkeypatch):
        """The result is encoded once, into the ``completed`` event; the
        status route serves those bytes without encoding it again."""
        app, manager, _, query_id = direct_app
        record = manager.query(query_id)
        completed = record.log.snapshot()[-1]
        assert completed["event"] == "completed"
        expected = json.dumps(result_to_json(record.result)).encode()

        def no_encoding(obj):
            raise AssertionError(f"{type(obj).__name__} encoded again")

        monkeypatch.setattr(repro.wire, "encode", no_encoding)
        response = route(app, "GET", f"/queries/{query_id}")
        body = json.loads(response.body)
        assert json.dumps(body["result"]).encode() == expected
        assert json.dumps(completed["data"]["result"]).encode() == expected
        assert record.status()["result"] is completed["data"]["result"]

    @pytest.mark.parametrize(
        "query_string, headers, start, cancel_on_disconnect",
        [
            ("", {}, 0, True),
            ("?from=3", {}, 3, True),
            ("", {"last-event-id": "4"}, 5, True),
            ("?from=2", {"last-event-id": "4"}, 2, True),
            ("?cancel_on_disconnect=0", {}, 0, False),
            ("?cancel_on_disconnect=false", {}, 0, False),
        ],
        ids=["fresh", "from", "last-event-id", "from-wins", "watch-0", "watch-false"],
    )
    def test_event_route_resolves_the_stream(
        self, direct_app, query_string, headers, start, cancel_on_disconnect
    ):
        app, manager, _, query_id = direct_app
        stream = route(
            app, "GET", f"/queries/{query_id}/events{query_string}", headers=headers
        )
        assert stream == _EventStream(
            manager.query(query_id), start, cancel_on_disconnect
        )

    @pytest.mark.parametrize(
        "method, target, body, status, code",
        [
            ("GET", "/", b"", 404, "no_route"),
            ("GET", "/nowhere", b"", 405, "no_route"),
            ("PUT", "/tenants", b"", 405, "no_route"),
            ("POST", "/tenants", b"{not json", 400, "bad_json"),
            ("POST", "/tenants", b"[1, 2]", 400, "bad_json"),
            ("POST", "/tenants", b"{}", 400, "missing_field"),
            (
                "POST",
                "/tenants",
                b'{"name": "x", "quota": {"max_detector_cals": 1}}',
                400,
                "ConfigurationError",
            ),
            ("POST", "/sessions", b'{"tenant": "ghost"}', 404, "not_found"),
            (
                "POST",
                "/sessions/s-missing/prepare",
                b'{"query": "SELECT * FROM v"}',
                404,
                "not_found",
            ),
            ("GET", "/queries/q-missing", b"", 404, "not_found"),
            ("GET", "/queries/q-missing/events", b"", 404, "not_found"),
        ],
        ids=[
            "root", "unknown-path", "wrong-method", "bad-json", "json-array",
            "missing-field", "unknown-quota-key", "unknown-tenant",
            "unknown-session", "unknown-query", "unknown-stream",
        ],
    )
    def test_route_errors_map_to_their_status(
        self, direct_app, method, target, body, status, code
    ):
        app = direct_app[0]
        assert rejection(app, method, target, body) == (status, code)


class TestSseFrames:
    """The SSE pump's one executor call per frame, without a socket."""

    def test_event_frame_advances_the_index(self, direct_app):
        app, manager, _, query_id = direct_app
        record = manager.query(query_id)
        first = record.log.snapshot()[0]
        frame, next_index = app._next_frame(record, 0)
        assert next_index == 1
        assert frame == (
            f"id: 0\nevent: {first['event']}\ndata: {json.dumps(first)}\n\n"
        ).encode()

    def test_end_marker_once_the_closed_log_is_drained(self, direct_app):
        app, manager, _, query_id = direct_app
        record = manager.query(query_id)
        frame, next_index = app._next_frame(record, len(record.log))
        assert next_index is None
        assert frame == b'event: end\ndata: {"state": "completed"}\n\n'

    def test_keep_alive_while_the_log_is_open(self, direct_app):
        app = direct_app[0]
        record = _detached_record()
        record.log.append({"event": "started"})
        frame, next_index = app._next_frame(record, 1)
        assert (frame, next_index) == (b": keep-alive\n\n", 1)

    def test_closed_log_still_yields_unread_events_before_the_end(self, direct_app):
        app = direct_app[0]
        record = _detached_record()
        record.log.append({"event": "started"})
        record.log.append({"event": "completed"})
        record.log.close()
        index: int | None = 0
        frames = []
        while index is not None:
            frame, index = app._next_frame(record, index)
            frames.append(frame)
        kinds = [
            line
            for frame in frames
            for line in frame.split(b"\n")
            if line.startswith(b"event: ")
        ]
        assert kinds == [b"event: started", b"event: completed", b"event: end"]

    def test_disconnect_cancels_an_unfinished_query(self, direct_app, monkeypatch):
        app, manager, _, _ = direct_app
        cancelled: list[str] = []
        monkeypatch.setattr(manager, "cancel", cancelled.append)
        app._cancel_unfinished(_detached_record("q-live"))
        assert cancelled == ["q-live"]

    def test_disconnect_leaves_a_finished_query_alone(self, direct_app, monkeypatch):
        app, manager, _, query_id = direct_app
        cancelled: list[str] = []
        monkeypatch.setattr(manager, "cancel", cancelled.append)
        app._cancel_unfinished(manager.query(query_id))
        assert cancelled == []


# ---------------------------------------------------------------------------------
# The socket layer's own failures: an unreadable head, a shutdown mid-connection
# ---------------------------------------------------------------------------------


def _raw_exchange(port: int, payload: bytes) -> bytes:
    """Send ``payload`` on a fresh socket and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _asyncio_errors(caplog: pytest.LogCaptureFixture) -> list[str]:
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]


class TestSocketLayerFailures:
    @pytest.mark.parametrize(
        ("head", "status", "code"),
        [
            (b"GARBAGE\r\n\r\n", 400, "bad_request"),
            (b"POST /tenants HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400, "bad_request"),
            (b"POST /tenants HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400, "bad_request"),
            (
                b"POST /tenants HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (service_app._MAX_BODY_BYTES + 1),
                413,
                "payload_too_large",
            ),
        ],
        ids=["request-line", "length-not-a-number", "length-negative", "body-too-large"],
    )
    def test_unreadable_request_head_gets_a_json_error(
        self, live_service, caplog, head, status, code
    ):
        client, _ = live_service
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            reply = _raw_exchange(client.port, head)
        status_line, _, rest = reply.partition(b"\r\n")
        head_lines, _, body = rest.partition(b"\r\n\r\n")
        assert status_line.split(b" ")[1] == str(status).encode(), reply
        assert b"Connection: close" in head_lines.split(b"\r\n")
        assert json.loads(body)["error"] == code
        # The connection is closed, the server is not: the next one is served.
        assert client.create_tenant("after") is not None
        assert _asyncio_errors(caplog) == []

    def test_idle_keep_alive_connection_ends_quietly_at_shutdown(self, caplog):
        """Exiting the service cancels a handler parked in ``readuntil``; it
        must end as a closed connection, not as a cancelled task whose
        done-callback logs a traceback on the ``asyncio`` logger."""
        manager = ServiceManager(build_engine(), ServiceConfig(slots=1))
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServiceThread(manager) as service:
                conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
            conn.close()
        assert _asyncio_errors(caplog) == []


# ---------------------------------------------------------------------------------
# Never blocking the loop is a property of the source's shape
# ---------------------------------------------------------------------------------

#: The socket layer: the only coroutines in ``src/``.
COROUTINES = [
    "serve",
    "_handle_connection",
    "_read_request",
    "_write_response",
    "_stream_events",
    "_main",  # ServiceThread's server task
]


def _app_coroutines() -> dict[str, ast.AsyncFunctionDef]:
    tree = ast.parse(Path(service_app.__file__).read_text())
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    }


def _loop_side_nodes(coroutine: ast.AsyncFunctionDef) -> list[ast.AST]:
    """Every node of the coroutine's body that runs on the loop: all of it
    but the arguments handed to ``run_in_executor``, which must be plain
    references (a call there would run on the loop before the hop)."""
    on_loop: list[ast.AST] = []
    pending: list[ast.AST] = list(coroutine.body)
    while pending:
        node = pending.pop()
        on_loop.append(node)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "run_in_executor"
        ):
            pending.append(node.func)
            for arg in node.args:
                assert not any(
                    isinstance(inner, ast.Call) for inner in ast.walk(arg)
                ), f"call evaluated on the loop: {ast.unparse(arg)}"
            continue
        pending.extend(ast.iter_child_nodes(node))
    return on_loop


class TestLoopStructure:
    def test_async_def_only_in_service_app(self):
        root = Path(repro.__file__).resolve().parent
        with_coroutines = sorted(
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if any(
                isinstance(node, ast.AsyncFunctionDef)
                for node in ast.walk(ast.parse(path.read_text()))
            )
        )
        assert with_coroutines == ["service/app.py"]
        assert sorted(_app_coroutines()) == sorted(COROUTINES)

    @pytest.mark.parametrize("name", COROUTINES)
    def test_coroutine_touches_no_manager_state_on_the_loop(self, name):
        """Inside a coroutine the manager, a record, its event log and the
        synchronous route methods appear only as ``run_in_executor``
        arguments, never read or called on the loop."""
        tree = ast.parse(Path(service_app.__file__).read_text())
        sync_methods = {
            member.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "QueryServiceApp"
            for member in cls.body
            if isinstance(member, ast.FunctionDef)
        }
        assert {"_route", "_next_frame", "_cancel_unfinished"} <= sync_methods
        for node in _loop_side_nodes(_app_coroutines()[name]):
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"manager", "record", "log"}, (
                    f"{name} reads .{node.attr} on the loop: {ast.unparse(node)}"
                )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in sync_methods, (
                    f"{name} calls {ast.unparse(node.func)} on the loop"
                )


# ---------------------------------------------------------------------------------
# Satellite: cancellation-after-disconnect races
# ---------------------------------------------------------------------------------


class TestDisconnectCancellationRaces:
    N_QUERIES = 6  # half get disconnected mid-stream

    def test_disconnect_stops_detector_calls_and_survivors_are_exact(self):
        seed = 23
        detector = _CountingDetector(seconds_per_frame=0.004)
        engine = build_engine(seed=seed, detector=detector)
        victims = range(0, self.N_QUERIES, 2)
        # Each victim scans its own copy of the video through its own gated
        # detector, held after the first batch until the server has taken
        # the disconnect: cancellation always lands mid-query, however
        # loaded the host.  Survivors share ``v`` and the ungated detector.
        victim_detectors = {
            i: _CountingDetector(seconds_per_frame=0.004, gate=threading.Event())
            for i in victims
        }
        for i, victim_detector in victim_detectors.items():
            engine.register_video(
                f"victim{i}",
                test_video=generate_scenario(SCENARIO, "test", FRAMES),
                detector=victim_detector,
            )
        manager = ServiceManager(
            engine, ServiceConfig(slots=self.N_QUERIES, heartbeat_seconds=0.25)
        )
        with ServiceThread(manager) as service:
            client = ServiceClient(service.host, service.port)
            client.create_tenant("t")
            # One session per query: every query runs truly concurrently.
            sessions = [
                client.create_session("t") for _ in range(self.N_QUERIES)
            ]
            query_ids = []
            for i, session_id in enumerate(sessions):
                video = f"victim{i}" if i in victims else "v"
                status = client.submit(
                    session_id, query=f"SELECT * FROM {video}", wait=False
                )
                query_ids.append(status["query_id"])

            # Disconnect every second client mid-stream: read two events off
            # the SSE wire, then abandon the iterator (closes the socket).
            def disconnect(query_id: str) -> None:
                stream = client.events(query_id)
                for count, _ in enumerate(stream):
                    if count >= 1:
                        break
                stream.close()

            threads = {
                i: threading.Thread(target=disconnect, args=(query_ids[i],))
                for i in victims
            }
            for thread in threads.values():
                thread.start()
            for i, thread in threads.items():
                thread.join(30.0)
                assert not thread.is_alive(), query_ids[i]
                # The server notices the closed socket at its next
                # keep-alive and cancels; only then may the query go on.
                victim = manager.query(query_ids[i])
                deadline = time.monotonic() + 30.0
                while not victim.cancel_requested and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert victim.cancel_requested, victim.status()
                victim_detectors[i].gate.set()

            records = [manager.query(query_id) for query_id in query_ids]
            for record in records:
                assert record.done.wait(60.0), record.query_id

            for i in victims:
                assert records[i].state == CANCELLED, records[i].status()
                assert records[i].result is not None  # partial, well-formed
            survivors = [
                records[i]
                for i in range(self.N_QUERIES)
                if i not in victims
            ]
            for record in survivors:
                assert record.state == COMPLETED, record.status()

            # Not one detector call outside the terminal ledgers: every raw
            # computation the detector ever did is accounted for by a
            # terminal result (partial or complete).  A single detector call
            # after a disconnect would break this equality.
            time.sleep(0.2)  # any runaway worker would land here
            ledger_total = sum(
                record.result.execution_ledger.detector_calls
                for record in records
            )
            computed = detector.computed + sum(
                victim_detector.computed
                for victim_detector in victim_detectors.values()
            )
            assert computed == ledger_total

            # Survivors' ledgers and results are exactly what unperturbed
            # in-process sessions produce: cancelled neighbours changed
            # nothing (RNG ancestry is per session, fixed at creation).
            reference_engine = build_engine(seed=seed)
            reference_sessions = [
                reference_engine.session() for _ in range(self.N_QUERIES)
            ]
            for i, record in enumerate(records):
                if i in victims:
                    continue
                expected = (
                    reference_sessions[i].prepare("SELECT * FROM v").execute()
                )
                assert result_fingerprint(record.result) == result_fingerprint(
                    expected
                )
                assert (
                    record.result.execution_ledger.detector_calls
                    == expected.execution_ledger.detector_calls
                )

    def test_detector_frozen_after_every_query_terminal(self):
        detector = _CountingDetector(seconds_per_frame=0.002)
        manager = ServiceManager(
            build_engine(detector=detector),
            ServiceConfig(slots=4, heartbeat_seconds=0.25),
        )
        try:
            manager.create_tenant("t")
            session_id = manager.create_session("t")
            record = manager.submit(session_id, query="SELECT * FROM v")
            deadline = time.monotonic() + 10.0
            while record.state == QUEUED and time.monotonic() < deadline:
                time.sleep(0.005)
            manager.cancel(record.query_id)
            assert record.done.wait(30.0)
            frozen = detector.computed
            time.sleep(0.25)
            assert detector.computed == frozen
        finally:
            manager.shutdown()
