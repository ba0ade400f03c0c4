"""Tests for the observability layer: tracer, metrics, EXPLAIN ANALYZE.

The load-bearing contract is determinism: a traced execution must be
byte-identical (``result_fingerprint``) to an untraced one across every
query class, parallelism level and backend — spans record wall time but
never feed it into result-bearing values, span *identity* is a pure
function of the execution.  On top of that: the metrics registry's
Prometheus exposition, the per-operator EXPLAIN ANALYZE profile and its
wire round-trip, the parallel wall-time accounting fix (S2), and the
service-level admission/TTFE instrumentation (S1).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.api.session as session_mod
from repro.api.hints import QueryHints
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.errors import ConfigurationError
from repro.detection.base import DetectionResult
from repro.detection.columnar import DetectionBatch
from repro.metrics.runtime import ExecutionLedger
from repro.obs.metrics import MetricsRegistry, get_registry, record_execution_ledger
from repro.obs.profile import ExecutionProfile, build_profile, estimate_errors
from repro.obs.trace import Tracer, maybe_span, operator_scope
from repro.service.protocol import (
    result_fingerprint,
    result_from_json,
    result_to_json,
)

from test_parallel import QUERIES


def _detect(ledger: ExecutionLedger, frames: range) -> None:
    """Record one detector call per frame (an empty detection), as the detect path does."""
    ledger.record_detections(
        DetectionBatch.from_detections([DetectionResult(frame, 0.0) for frame in frames])
    )


def run(engine, query, seed=42, **kwargs):
    with engine.session() as session:
        return session.prepare(query).execute(
            rng=np.random.default_rng(seed), **kwargs
        )


@pytest.fixture(scope="module")
def spawn_engine(tiny_video, tiny_labeled_set, detector, engine_config):
    """Engine without a test-day recording, so process workers can spawn."""
    engine = BlazeIt(detector=detector, config=engine_config)
    engine.register_video("tiny", test_video=tiny_video)
    engine.attach_labeled_set("tiny", tiny_labeled_set)
    return engine


@pytest.fixture(scope="module")
def untraced_fingerprints(spawn_engine):
    """Sequential untraced reference fingerprint per query class."""
    return {
        kind: result_fingerprint(run(spawn_engine, query, parallelism=1))
        for kind, query in QUERIES.items()
    }


# -- tracer ---------------------------------------------------------------------------


class TestTracer:
    def test_span_ids_are_creation_order_deterministic(self):
        tracer = Tracer()
        with tracer.span("parse"):
            pass
        with tracer.span("execute") as execute:
            with tracer.span("inner-a"), tracer.span("inner-b"):
                pass
        ids = [r.span_id for r in tracer.records()]
        assert ids == ["s0", "s1", "s1.0", "s1.0.0"]
        assert execute.parent_id is None
        assert tracer.open_spans() == 0

    def test_trace_id_derives_from_seed_sequence_not_clock(self):
        child = np.random.SeedSequence(7).spawn(3)[2]
        assert Tracer.from_seed_sequence(child).trace_id == "seed:7/2"
        assert (
            Tracer.from_seed_sequence(child).trace_id
            == Tracer.from_seed_sequence(child).trace_id
        )
        assert Tracer.from_seed_sequence(None).trace_id == "trace"
        assert (
            Tracer.from_seed_sequence(np.random.SeedSequence(7)).trace_id
            == "seed:7/root"
        )

    def test_span_closes_on_exception_path(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.open_spans() == 0
        inner = tracer.records()[1]
        assert inner.name == "inner" and inner.wall_duration >= 0.0

    def test_operator_span_snapshots_detector_call_delta(self):
        tracer = Tracer()
        ledger = ExecutionLedger()
        with tracer.operator_span("FullScan", ledger):
            _detect(ledger, range(7))
        record = tracer.records()[0]
        assert record.attributes["kind"] == "operator"
        assert record.attributes["detector_calls"] == 7

    def test_worker_spans_stitch_under_current_span_by_shard_id(self):
        tracer = Tracer()
        payloads = [
            {"shard_id": 1, "name": "shard_worker", "wall_duration": 0.5,
             "frames": 10, "backend": "threads"},
            {"shard_id": 0, "name": "shard_worker", "wall_duration": 0.4,
             "frames": 12, "backend": "threads"},
        ]
        with tracer.span("execute"):
            tracer.attach_worker_spans(payloads)
        workers = [r for r in tracer.records() if r.name == "shard_worker"]
        assert [w.span_id for w in workers] == ["s0.w1", "s0.w0"]
        assert all(w.parent_id == "s0" for w in workers)
        assert workers[0].attributes == {
            "frames": 10, "backend": "threads", "shard_id": 1
        }

    def test_null_span_is_shared_and_free(self):
        class Bare:
            tracer = None

        assert maybe_span(None, "x") is maybe_span(None, "y")
        assert operator_scope(Bare(), "FullScan") is maybe_span(None, "z")

    def test_synthetic_span_records_given_duration(self):
        tracer = Tracer()
        record = tracer.synthetic_span("parse", 0.125)
        assert record.span_id == "s0" and record.wall_duration == 0.125
        assert tracer.open_spans() == 0


# -- metrics registry -----------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_histogram_prometheus_text(self):
        registry = MetricsRegistry()
        registry.inc("repro_x_total", 2, {"kind": "a"}, help="X total.")
        registry.inc("repro_x_total", 3, {"kind": "a"})
        registry.observe("repro_wait_seconds", 0.07, buckets=[0.01, 0.1, 1.0])
        registry.observe("repro_wait_seconds", 5.0, buckets=[0.01, 0.1, 1.0])
        text = registry.render_prometheus()
        assert "# HELP repro_x_total X total." in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{kind="a"} 5' in text
        assert "# TYPE repro_wait_seconds histogram" in text
        assert 'repro_wait_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_wait_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_wait_seconds_count 2" in text
        assert text.endswith("\n")

    def test_bucket_counts_are_cumulative_and_monotone(self):
        registry = MetricsRegistry()
        for value in (0.005, 0.05, 0.5, 50.0):
            registry.observe("repro_h", value, buckets=[0.01, 0.1, 1.0])
        lines = [
            line
            for line in registry.render_prometheus().splitlines()
            if line.startswith("repro_h_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts) == [1, 2, 3, 4]

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.inc("repro_esc_total", 1, {"q": 'say "hi"\nnow'})
        assert '\\"hi\\"\\n' in registry.render_prometheus()

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("repro_c", 1, {"kind": "a"})
        registry.observe("repro_h", 0.5)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "histograms"}
        assert snapshot["counters"] == {'repro_c{kind="a"}': 1.0}
        assert snapshot["histograms"]["repro_h"]["count"] == 1

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("repro_c")
        registry.reset()
        assert registry.render_prometheus() == "\n"

    def test_record_execution_ledger_folds_counters(self):
        registry = get_registry()
        registry.reset()
        record_execution_ledger("selection", ExecutionLedger(detector_calls=9))
        snapshot = registry.snapshot()
        assert snapshot["counters"]['repro_queries_total{kind="selection"}'] == 1.0
        assert (
            snapshot["counters"]['repro_detector_calls_total{kind="selection"}']
            == 9.0
        )
        registry.reset()


# -- EXPLAIN ANALYZE ------------------------------------------------------------------


class TestExplainAnalyze:
    def test_execute_analyze_attaches_profile(self, spawn_engine):
        result = run(spawn_engine, QUERIES["selection"], analyze=True)
        profile = result.profile
        assert isinstance(profile, ExecutionProfile)
        assert profile.kind == result.kind
        executed = [
            op for op in profile.operators if op.actual_detector_calls is not None
        ]
        assert executed, profile.render()
        assert any(op.estimated_detector_calls is not None for op in executed)
        rendered = profile.render()
        assert "est" in rendered and "actual" in rendered
        # An explicit rng bypasses the session's seed-sequence draw, so the
        # trace id falls back to the default; session-drawn executions get
        # the deterministic spawn-path id (covered below).
        assert profile.trace_id == "trace"
        # parse/optimize/execute spans frame the operator spans.
        names = {span.name for span in profile.spans}
        assert {"parse", "optimize", "execute"} <= names

    def test_session_drawn_rng_yields_seeded_trace_id(self, spawn_engine):
        with spawn_engine.session() as session:
            first = session.prepare(QUERIES["exact"]).execute(analyze=True)
        assert first.profile.trace_id.startswith("seed:")

    def test_default_execution_attaches_no_profile(self, spawn_engine):
        assert run(spawn_engine, QUERIES["selection"]).profile is None

    def test_trace_flag_precedence(self, spawn_engine):
        # Explicit trace=True wins over the (off) config default.
        assert run(spawn_engine, QUERIES["exact"], trace=True).profile is not None
        # analyze=True wins over trace=False.
        assert (
            run(spawn_engine, QUERIES["exact"], trace=False, analyze=True).profile
            is not None
        )
        # Session hints enable tracing without per-call arguments.
        with spawn_engine.session(hints=QueryHints(trace=True)) as session:
            result = session.prepare(QUERIES["exact"]).execute(
                rng=np.random.default_rng(42)
            )
        assert result.profile is not None

    def test_trace_argument_validated(self, spawn_engine):
        with pytest.raises(ConfigurationError):
            run(spawn_engine, QUERIES["exact"], trace="yes")

    def test_explain_analyze_returns_profile(self, spawn_engine):
        with spawn_engine.session() as session:
            prepared = session.prepare(QUERIES["aggregate_exact"])
            profile = prepared.explain(analyze=True)
            assert isinstance(profile, ExecutionProfile)
            explanation = prepared.explain()
            assert not isinstance(explanation, ExecutionProfile)

    def test_estimate_errors_rows(self, spawn_engine):
        result = run(spawn_engine, QUERIES["exact"], analyze=True)
        rows = estimate_errors([result.profile])
        assert rows and all("relative_error" in row for row in rows)
        for row in rows:
            assert row["actual_detector_calls"] >= 0

    def test_build_profile_sums_repeated_operator_spans(self):
        from repro.core.results import OperatorNode

        tracer = Tracer()
        ledger = ExecutionLedger()
        for frames in (range(3), range(3, 7)):
            with tracer.operator_span("FullScan", ledger):
                _detect(ledger, frames)
        tree = OperatorNode(
            name="FullScan", detail="", estimated_detector_calls=10
        )
        profile = build_profile("exact", "scan", tree, tracer)
        assert profile.operators[0].actual_detector_calls == 7
        assert profile.operators[0].estimated_detector_calls == 10


# -- determinism: traced == untraced across the whole matrix --------------------------


class TestTraceIdentityMatrix:
    @pytest.mark.parametrize("kind", sorted(QUERIES))
    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_traced_result_fingerprint_identical(
        self, spawn_engine, untraced_fingerprints, kind, parallelism, backend
    ):
        traced = run(
            spawn_engine,
            QUERIES[kind],
            parallelism=parallelism,
            backend=backend,
            trace=True,
        )
        assert result_fingerprint(traced) == untraced_fingerprints[kind]
        assert traced.profile is not None

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_worker_spans_stitched_per_backend(self, spawn_engine, backend):
        result = run(
            spawn_engine,
            QUERIES["exact"],
            parallelism=4,
            backend=backend,
            analyze=True,
        )
        workers = [
            span for span in result.profile.spans if span.name == "shard_worker"
        ]
        assert len(workers) == 4
        assert sorted(span.attributes["shard_id"] for span in workers) == [
            0, 1, 2, 3,
        ]
        assert {span.attributes["backend"] for span in workers} == {backend}
        # Stable ids derived from shard ids under the execute span.
        assert sorted(span.span_id for span in workers) == [
            f"{workers[0].parent_id}.w{i}" for i in range(4)
        ]


# -- S2: wall-time accounting ---------------------------------------------------------


class TestWallAccounting:
    @pytest.mark.parametrize("backend", ["sequential", "threads", "processes"])
    def test_parallel_wall_matches_driver_elapsed(self, spawn_engine, backend):
        """Regression (S2): the terminal ledger's wall time must cover the
        whole execution — executor construction and (for the process
        backend) worker spawn included — so every backend's rows are
        comparable.  Before the fix the process backend reported only the
        stream-drain time, hiding seconds of spawn cost."""
        options = (
            {"parallelism": 1}
            if backend == "sequential"
            else {"parallelism": 4, "backend": backend}
        )
        started = time.perf_counter()
        result = run(spawn_engine, QUERIES["exact"], **options)
        elapsed = time.perf_counter() - started
        wall = result.execution_ledger.wall_seconds
        assert wall <= elapsed * 1.05 + 0.01
        assert wall >= 0.5 * elapsed


# -- S4: wire round-trips -------------------------------------------------------------


class TestProfileWireRoundTrip:
    def test_profile_survives_protocol_round_trip(self, spawn_engine):
        result = run(spawn_engine, QUERIES["selection"], analyze=True)
        restored = result_from_json(result_to_json(result))
        assert restored.profile is not None
        assert restored.profile.trace_id == result.profile.trace_id
        assert [op.name for op in restored.profile.operators] == [
            op.name for op in result.profile.operators
        ]
        assert [span.span_id for span in restored.profile.spans] == [
            span.span_id for span in result.profile.spans
        ]

    def test_fingerprint_excludes_profile(self, spawn_engine):
        traced = run(spawn_engine, QUERIES["selection"], analyze=True)
        untraced = run(spawn_engine, QUERIES["selection"])
        assert result_fingerprint(traced) == result_fingerprint(untraced)

    def test_closed_stream_leaks_no_spans(self, spawn_engine, monkeypatch):
        """Abandoning a traced stream mid-flight (the client-disconnect
        path) must unwind every open span."""
        tracers: list[Tracer] = []

        class RecordingTracer(Tracer):
            @classmethod
            def from_seed_sequence(cls, seed_sequence):
                tracer = super().from_seed_sequence(seed_sequence)
                tracers.append(tracer)
                return tracer

        monkeypatch.setattr(session_mod, "Tracer", RecordingTracer)
        with spawn_engine.session() as session:
            prepared = session.prepare(QUERIES["exact"])
            stream = prepared.stream(
                rng=np.random.default_rng(42), batch_size=16, trace=True
            )
            next(iter(stream))
            stream.close()
        assert len(tracers) == 1
        assert tracers[0].open_spans() == 0
        assert any(r.name == "execute" for r in tracers[0].records())


# -- S1 + service wire: admission waits, /metrics, traced queries over SSE ------------


def _service_engine():
    from repro.detection.simulated import SimulatedDetector
    from repro.video.scenarios import generate_scenario

    engine = BlazeIt(
        detector=SimulatedDetector.mask_rcnn(),
        config=BlazeItConfig(seed=11),
    )
    engine.register_video(
        "v", test_video=generate_scenario("rialto", "test", 120)
    )
    return engine


@pytest.fixture()
def service_manager():
    from repro.service.manager import ServiceConfig, ServiceManager

    manager = ServiceManager(_service_engine(), ServiceConfig(slots=2))
    try:
        yield manager
    finally:
        manager.shutdown()


@pytest.fixture()
def live_client(service_manager):
    from repro.service.app import ServiceThread
    from repro.service.client import ServiceClient

    with ServiceThread(service_manager) as service:
        yield ServiceClient(service.host, service.port)


class TestServiceObservability:
    def test_admission_waits_and_ttfe_on_status(self, service_manager):
        service_manager.create_tenant("t")
        session_id = service_manager.create_session("t")
        record = service_manager.submit(session_id, query="SELECT * FROM v")
        assert record.done.wait(60.0)
        payload = record.status()
        for key in (
            "admission_wait_seconds",
            "slot_wait_seconds",
            "ttfe_seconds",
        ):
            assert payload[key] is not None and payload[key] >= 0.0
        # TTFE includes the admission wait by construction.
        assert payload["ttfe_seconds"] >= payload["admission_wait_seconds"]

    def test_quota_rejection_increments_counter(self, service_manager):
        from repro.service.manager import QuotaExceededError, TenantQuota

        get_registry().reset()
        service_manager.create_tenant(
            "small", TenantQuota(max_detector_calls=1)
        )
        session_id = service_manager.create_session("small")
        record = service_manager.submit(
            session_id, query="SELECT FCOUNT(*) FROM v WHERE class = 'car'"
        )
        assert record.done.wait(60.0)
        with pytest.raises(QuotaExceededError):
            service_manager.submit(session_id, query="SELECT * FROM v")
        counters = get_registry().snapshot()["counters"]
        assert counters['repro_quota_rejections_total{tenant="small"}'] == 1

    def test_manager_status_embeds_metrics_snapshot(self, service_manager):
        snapshot = service_manager.status()["metrics"]
        assert isinstance(snapshot, dict)

    def test_metrics_endpoint_serves_prometheus_text(self, live_client):
        live_client.create_tenant("t")
        session_id = live_client.create_session("t")
        live_client.execute(session_id, "SELECT * FROM v")
        text = live_client.metrics()
        assert text.endswith("\n")
        lines = [line for line in text.splitlines() if line]
        assert any(line.startswith("# HELP repro_") for line in lines)
        assert any(line.startswith("# TYPE repro_") for line in lines)
        for line in lines:
            if line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part and float(value) is not None
        assert "repro_query_wall_seconds_bucket" in text

    def test_healthz_carries_metrics_snapshot(self, live_client):
        payload = live_client.healthz()
        assert isinstance(payload["metrics"], dict)

    def test_traced_query_profile_round_trips_over_wire(self, live_client):
        live_client.create_tenant("t")
        session_id = live_client.create_session("t")
        plain = live_client.execute(session_id, "SELECT * FROM v")
        traced = live_client.execute(
            session_id, "SELECT * FROM v", hints={"trace": True}
        )
        assert result_fingerprint(traced) == result_fingerprint(plain)
        assert traced.profile is not None
        names = {span.name for span in traced.profile.spans}
        assert {"parse", "optimize", "execute"} <= names

    def test_sse_resume_preserves_traced_tail(self, live_client):
        """S4: a traced query's SSE stream resumes from an index with an
        identical tail, and the terminal status still carries the profile."""
        live_client.create_tenant("t")
        session_id = live_client.create_session("t")
        status = live_client.submit(
            session_id,
            query="SELECT * FROM v",
            hints={"trace": True},
            wait=False,
        )
        query_id = status["query_id"]
        events = list(live_client.events(query_id))
        assert events and type(events[-1][1]).__name__ == "Completed"
        indices = [index for index, _ in events]
        assert indices == list(range(len(events)))
        resumed = list(live_client.events(query_id, start=2))
        assert [index for index, _ in resumed] == indices[2:]
        final = live_client.query_status(query_id)
        assert final["state"] == "completed"
        restored = result_from_json(final["result"])
        assert restored.profile is not None
        assert restored.profile.trace_id.startswith("seed:")
