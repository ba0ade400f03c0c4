"""Service-layer tests: manager, scheduler, wire protocol, cancellation races.

Three layers are exercised:

- **Manager** (no sockets): admission control, quota accounting, fair
  scheduling, per-session serialization.
- **Wire** (real asyncio server on an ephemeral port + the stdlib client):
  results byte-identical to in-process execution, SSE streaming with
  resume, typed HTTP rejections.
- **Cancellation races** (the PR's satellite): N concurrent queries over
  the service, half disconnected mid-stream; after every disconnected
  query reaches its terminal state, the detector's raw computation count
  must equal the sum of every terminal ledger — i.e. not one detector call
  happened after a disconnect — and the surviving queries' results must be
  byte-identical to unperturbed in-process runs.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api.hints import QueryHints
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.detection.simulated import SimulatedDetector
from repro.obs.metrics import get_registry
from repro.service.app import ServiceThread
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import (
    CANCELLED,
    COMPLETED,
    QUEUED,
    AdmissionRejectedError,
    EventLog,
    NotFoundError,
    QuotaExceededError,
    ServiceConfig,
    ServiceManager,
    TenantQuota,
)
from repro.service.protocol import result_fingerprint
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
    """Mask R-CNN simulation counting raw detect computations, with latency."""

    def __init__(self, seconds_per_frame: float = 0.0) -> None:
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
        self._count_lock = threading.Lock()

    def detect(self, video, frame_index, ledger=None):
        with self._count_lock:
            self.computed += 1
        if self.seconds_per_frame:
            time.sleep(self.seconds_per_frame)
        return super().detect(video, frame_index, ledger)

    def _detect_batch(self, video, frame_indices, ledger=None):
        with self._count_lock:
            self.computed += len(frame_indices)
        if self.seconds_per_frame:
            time.sleep(self.seconds_per_frame * len(frame_indices))
        return super()._detect_batch(video, frame_indices, ledger)


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
    """The reproducibility invariant the analyzer exists to protect, as one
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


# ---------------------------------------------------------------------------------
# Satellite: cancellation-after-disconnect races
# ---------------------------------------------------------------------------------


class TestDisconnectCancellationRaces:
    N_QUERIES = 6  # half get disconnected mid-stream

    def test_disconnect_stops_detector_calls_and_survivors_are_exact(self):
        seed = 23
        detector = _CountingDetector(seconds_per_frame=0.004)
        manager = ServiceManager(
            build_engine(seed=seed, detector=detector),
            ServiceConfig(slots=self.N_QUERIES, heartbeat_seconds=0.25),
        )
        victims = range(0, self.N_QUERIES, 2)
        with ServiceThread(manager) as service:
            client = ServiceClient(service.host, service.port)
            client.create_tenant("t")
            # One session per query: every query runs truly concurrently.
            sessions = [
                client.create_session("t") for _ in range(self.N_QUERIES)
            ]
            query_ids = []
            for session_id in sessions:
                status = client.submit(
                    session_id, query="SELECT * FROM v", wait=False
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

            threads = [
                threading.Thread(target=disconnect, args=(query_ids[i],))
                for i in victims
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)

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
            assert detector.computed == ledger_total

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
