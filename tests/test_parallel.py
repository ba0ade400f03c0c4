"""Tests for the parallel sharded execution engine.

The load-bearing property is *determinism*: a parallel execution must be
bit-for-bit the sequential one — values, records, hit sets and ledger
accounting — under the same RNG stream, at every parallelism.  The rest of
the suite covers statistics-driven pruning, routing, and prompt cancellation
of in-flight workers; the shard driver protocol itself (shard-boundary
semantics, progress events, announce/take) is checked once for both
transports in ``test_process_backend.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api.hints import QueryHints
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.events import ScrubbingHit, ShardProgress
from repro.catalog.statistics import VideoStatistics
from repro.detection.simulated import SimulatedDetector
from repro.errors import ConfigurationError
from repro.parallel.shards import MAX_SHARDS, VideoSharder
from repro.specialization.trainer import TrainingConfig
from repro.video.synthetic import SyntheticVideo

from conftest import make_video_spec

QUERIES = {
    "aggregate_aqp": (
        "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' "
        "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
    ),
    "aggregate_exact": "SELECT FCOUNT(*) FROM tiny WHERE class = 'car'",
    "scrubbing": (
        "SELECT timestamp FROM tiny GROUP BY timestamp "
        "HAVING COUNT(class = 'car') >= 1 LIMIT 5 GAP 30"
    ),
    "selection": "SELECT * FROM tiny WHERE class = 'car'",
    "exact": "SELECT * FROM tiny",
}


def fingerprint(result):
    """Everything observable about a result, with numpy fields made hashable."""
    base = (
        result.kind,
        result.method,
        result.stop_reason,
        result.detection_calls,
        result.ledger.charges,
        result.ledger.calls,
        result.execution_ledger.detector_calls,
        result.execution_ledger.frames_decoded,
        result.execution_ledger.detection_cache_hits,
        result.execution_ledger.shared_cache_hits,
        result.execution_ledger.events_emitted,
    )
    if hasattr(result, "value"):
        base += (result.value, getattr(result, "samples_used", None))
    if hasattr(result, "frames"):
        base += (tuple(result.frames), result.satisfied)
    if hasattr(result, "matched_frames"):
        base += (tuple(result.matched_frames), result.frames_after_filters)
    if hasattr(result, "records"):
        base += (
            tuple(
                (
                    r.frame_index,
                    r.object_class,
                    r.trackid,
                    r.confidence,
                    None if r.features is None else tuple(np.asarray(r.features)),
                )
                for r in result.records
            ),
        )
    return base


def run(engine, query, parallelism, seed=42, hints=None, **kwargs):
    with engine.session() as session:
        return session.prepare(query, hints=hints).execute(
            rng=np.random.default_rng(seed), parallelism=parallelism, **kwargs
        )


class TestParallelEqualsSequential:
    @pytest.mark.parametrize("kind", sorted(QUERIES))
    @pytest.mark.parametrize("parallelism", [2, 4, 7])
    def test_bit_identical_across_parallelism(self, tiny_engine, kind, parallelism):
        sequential = run(tiny_engine, QUERIES[kind], parallelism=1)
        parallel = run(tiny_engine, QUERIES[kind], parallelism=parallelism)
        assert fingerprint(parallel) == fingerprint(sequential)

    @pytest.mark.parametrize(
        "forced", ["naive_aqp", "control_variates", "specialized_rewrite", "exact"]
    )
    def test_forced_aggregate_methods_bit_identical(self, tiny_engine, forced):
        hints = QueryHints(force_plan=forced)
        sequential = run(
            tiny_engine, QUERIES["aggregate_aqp"], parallelism=1, hints=hints
        )
        parallel = run(
            tiny_engine, QUERIES["aggregate_aqp"], parallelism=4, hints=hints
        )
        assert fingerprint(parallel) == fingerprint(sequential)

    def test_scrubbing_hit_order_identical(self, tiny_engine):
        hits = {}
        for parallelism in (1, 4):
            with tiny_engine.session() as session:
                stream = session.stream(
                    QUERIES["scrubbing"],
                    rng=np.random.default_rng(9),
                    parallelism=parallelism,
                )
                hits[parallelism] = [
                    e.frame_index for e in stream if isinstance(e, ScrubbingHit)
                ]
        assert hits[4] == hits[1]

    def test_scrubbing_exhaustive_fallback_bit_identical(self, tiny_engine):
        # A conjunction too rare to satisfy: the importance scan runs dry and
        # the exhaustive fallback sweeps the skipped frames — off the
        # announced prefetch order, so the driver computes them inline with
        # sequential-identical charging.
        query = (
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING COUNT(class = 'car') >= 4 LIMIT 5 GAP 10"
        )
        sequential = run(tiny_engine, query, parallelism=1, seed=3)
        parallel = run(tiny_engine, query, parallelism=4, seed=3)
        assert not parallel.satisfied
        assert fingerprint(parallel) == fingerprint(sequential)

    def test_parallelism_one_is_the_plain_sequential_path(self, tiny_engine):
        baseline = run(tiny_engine, QUERIES["aggregate_aqp"], parallelism=None)
        explicit = run(tiny_engine, QUERIES["aggregate_aqp"], parallelism=1)
        assert fingerprint(explicit) == fingerprint(baseline)

    def test_hints_and_config_route_parallelism(self, tiny_engine):
        baseline = run(tiny_engine, QUERIES["exact"], parallelism=4)
        hinted = run(
            tiny_engine,
            QUERIES["exact"],
            parallelism=None,
            hints=QueryHints(parallelism=4),
        )
        assert fingerprint(hinted) == fingerprint(baseline)

    def test_shard_progress_excluded_from_event_accounting(self, tiny_engine):
        sequential = run(tiny_engine, QUERIES["exact"], parallelism=1)
        parallel = run(tiny_engine, QUERIES["exact"], parallelism=4)
        assert (
            parallel.execution_ledger.events_emitted
            == sequential.execution_ledger.events_emitted
        )


class TestVideoSharder:
    def test_balanced_contiguous_partition(self):
        plan = VideoSharder().shard(num_frames=10, parallelism=3)
        spans = [(s.start, s.end) for s in plan.shards]
        assert spans == [(0, 4), (4, 7), (7, 10)]
        assert sum(s.num_frames for s in plan.shards) == 10

    def test_owner_of_every_frame(self):
        plan = VideoSharder().shard(num_frames=101, parallelism=7)
        for frame in range(101):
            shard = plan.owner_of(frame)
            assert shard.start <= frame < shard.end
        with pytest.raises(IndexError):
            plan.owner_of(101)

    def test_shard_count_capped_by_frames_and_max(self):
        assert len(VideoSharder().shard(num_frames=3, parallelism=8)) == 3
        assert (
            len(VideoSharder().shard(num_frames=10_000, parallelism=1000))
            == MAX_SHARDS
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VideoSharder().shard(num_frames=0, parallelism=2)
        with pytest.raises(ConfigurationError):
            VideoSharder().shard(num_frames=10, parallelism=0)

    def _stats_with_cold_back_half(self) -> VideoStatistics:
        heldout = [1] * 50 + [0] * 50
        return VideoStatistics.from_dict(
            {
                "video": "v",
                "num_frames": 100,
                "train_frames": 100,
                "heldout_frames": 100,
                "detector_seconds_per_call": 1 / 3,
                "training_epochs": 2,
                "classes": {
                    "car": {
                        "training_positives": 50,
                        "presence_rate": 0.5,
                        "mean_count": 0.5,
                        "count_std": 0.5,
                        "max_count": 1,
                    }
                },
                "train_counts": {"car": heldout},
                "heldout_counts": {"car": heldout},
            }
        )

    def test_statistics_prune_cold_shards_and_order_dense_first(self):
        stats = self._stats_with_cold_back_half()
        plan = VideoSharder().shard(
            num_frames=100, parallelism=4, stats=stats, min_counts={"car": 1}
        )
        rates = [s.estimated_rate for s in plan.shards]
        assert rates[0] == pytest.approx(1.0)
        assert rates[3] == 0.0
        assert plan.shards[3].pruned and plan.shards[2].pruned
        assert not plan.shards[0].pruned
        order = [s.shard_id for s in plan.scheduling_order()]
        assert order[:2] == [0, 1]
        assert set(order[2:]) == {2, 3}
        assert [s.shard_id for s in plan.shards if s.pruned] == [2, 3]

    def test_no_statistics_means_no_pruning(self):
        plan = VideoSharder().shard(
            num_frames=100, parallelism=4, min_counts={"car": 1}
        )
        assert all(s.estimated_rate == 1.0 and not s.pruned for s in plan.shards)

    def test_presence_rate_profile_for_object_class(self):
        stats = self._stats_with_cold_back_half()
        plan = VideoSharder().shard(
            num_frames=100, parallelism=2, stats=stats, object_class="car"
        )
        assert plan.shards[0].estimated_rate == pytest.approx(1.0)
        assert plan.shards[1].estimated_rate == 0.0 and plan.shards[1].pruned


class _CountingDetector(SimulatedDetector):
    """Mask R-CNN simulation that counts raw detection computations."""

    def __init__(self):
        base = SimulatedDetector.mask_rcnn()
        super().__init__(
            name=base.name,
            cost=base.cost,
            noise=base.noise,
            confidence_threshold=base.confidence_threshold,
            supported=base._supported,
            seed=base.seed,
        )
        self.computed = 0
        self._count_lock = threading.Lock()

    def detect_columns(self, video, frame_indices):
        with self._count_lock:
            self.computed += len(frame_indices)
        # A trace of real-detector latency keeps workers genuinely in flight
        # when the cancellation tests close the stream mid-scan.
        time.sleep(0.0005 * len(frame_indices))
        return super().detect_columns(video, frame_indices)


@pytest.fixture()
def live_engine():
    """An engine whose detector is actually invoked (no recording)."""
    detector = _CountingDetector()
    engine = BlazeIt(
        detector=detector,
        config=BlazeItConfig(
            training=TrainingConfig(epochs=2, batch_size=32, min_examples=16),
            min_training_positives=20,
            seed=3,
        ),
    )
    engine.register_video("live", test_video=SyntheticVideo.generate(make_video_spec()))
    return engine, detector


class TestFailureModes:
    def test_explicit_invalid_parallelism_raises(self, tiny_engine):
        with tiny_engine.session() as session:
            prepared = session.prepare(QUERIES["exact"])
            with pytest.raises(ConfigurationError):
                prepared.execute(parallelism=0)
            with pytest.raises(ConfigurationError):
                prepared.stream(parallelism=-4)
            for bad in (True, 2.5):
                with pytest.raises(ConfigurationError):
                    prepared.stream(parallelism=bad)
        for bad in (0, True, 2.5):
            with pytest.raises(ConfigurationError):
                QueryHints(parallelism=bad)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_worker_crash_surfaces_instead_of_hanging(self):
        class ExplodingDetector(SimulatedDetector):
            def __init__(self):
                base = SimulatedDetector.mask_rcnn()
                super().__init__(
                    name=base.name,
                    cost=base.cost,
                    noise=base.noise,
                    confidence_threshold=base.confidence_threshold,
                    supported=base._supported,
                    seed=base.seed,
                )

            def detect_columns(self, video, frame_indices):
                if any(int(f) >= 150 for f in frame_indices):
                    raise RuntimeError("detector backend fell over")
                return super().detect_columns(video, frame_indices)

        engine = BlazeIt(
            detector=ExplodingDetector(),
            config=BlazeItConfig(
                training=TrainingConfig(epochs=2, batch_size=32, min_examples=16),
                seed=3,
            ),
        )
        engine.register_video(
            "flaky", test_video=SyntheticVideo.generate(make_video_spec(name="flaky"))
        )
        with engine.session() as session:
            # The shard worker owning frame 150 dies; the driver must fall
            # back to inline computation, reproduce the error on its own
            # thread and raise it — never poll forever.
            with pytest.raises(RuntimeError, match="detector backend fell over"):
                session.prepare("SELECT * FROM flaky").execute(
                    rng=np.random.default_rng(1), parallelism=4
                )


class TestCancellation:
    def test_close_stops_in_flight_shard_workers_promptly(self, live_engine):
        engine, detector = live_engine
        with engine.session() as session:
            stream = session.stream(
                "SELECT * FROM live",
                rng=np.random.default_rng(3),
                parallelism=4,
                batch_size=16,
            )
            consumed = 0
            for _ in stream:
                consumed += 1
                if consumed >= 3:
                    break
            stream.close()
            after_close = detector.computed
            time.sleep(0.2)
            assert detector.computed == after_close, (
                "shard workers must be joined by close(): no detector call "
                "may happen after it returns"
            )
            assert after_close < 400, "close mid-scan should not finish the video"

    def test_cancel_finalises_partial_result_and_stops_workers(self, live_engine):
        engine, detector = live_engine
        with engine.session() as session:
            stream = session.stream(
                "SELECT * FROM live",
                rng=np.random.default_rng(3),
                parallelism=4,
                batch_size=16,
            )
            for _ in stream:
                break
            stream.cancel()
            result = stream.drain()
            assert result.stop_reason == "cancelled"
            settled = detector.computed
            time.sleep(0.2)
            assert detector.computed == settled

    def test_limit_satisfied_across_shards_stops_workers(self, live_engine):
        engine, detector = live_engine
        query = (
            "SELECT timestamp FROM live GROUP BY timestamp "
            "HAVING COUNT(class = 'car') >= 1 LIMIT 2"
        )
        with engine.session() as session:
            result = session.stream(
                query, rng=np.random.default_rng(5), parallelism=4, batch_size=16
            ).drain()
        assert result.satisfied
        settled = detector.computed
        time.sleep(0.2)
        assert detector.computed == settled
        # The driver charged only what the walk consumed before the limit.
        assert result.execution_ledger.detector_calls < 400


class TestDefaultRoutingDeclinesScrubbing:
    """Hint/config-routed parallelism is priced per query; explicit wins.

    Scrubbing scans stop early (importance ranking or a satisfied LIMIT), so
    speculative shard prefetch is a measured wall-clock regression for them.
    With catalog statistics — the tiny engine has them — the optimizer's
    ``ParallelismModel`` prices worker startup plus expected prefetch waste
    against the plan's expected detector work and reaches sequential on the
    merits; without statistics the routing function's stats-free rule gives
    the same blanket answer.  An explicit per-call ``parallelism=`` is
    honoured as given either way.
    """

    def _shard_events(self, stream):
        return [e for e in stream if isinstance(e, ShardProgress)]

    def test_hint_routed_scrubbing_runs_sequential(self, tiny_engine):
        with tiny_engine.session(hints=QueryHints(parallelism=4)) as session:
            stream = session.stream(
                QUERIES["scrubbing"], rng=np.random.default_rng(1)
            )
            assert self._shard_events(stream) == []

    def test_config_routed_scrubbing_runs_sequential(
        self, tiny_video, tiny_train_video, tiny_heldout_video, detector,
        engine_config
    ):
        import dataclasses

        config = dataclasses.replace(engine_config, parallelism=4)
        engine = BlazeIt(detector=detector, config=config)
        engine.register_video(
            "tiny",
            test_video=tiny_video,
            train_video=tiny_train_video,
            heldout_video=tiny_heldout_video,
        )
        engine.record_test_day("tiny")
        with engine.session() as session:
            stream = session.stream(
                QUERIES["scrubbing"], rng=np.random.default_rng(1)
            )
            assert self._shard_events(stream) == []

    def test_explicit_per_call_parallelism_still_shards(self, tiny_engine):
        with tiny_engine.session() as session:
            stream = session.stream(
                QUERIES["scrubbing"], rng=np.random.default_rng(1), parallelism=4
            )
            assert self._shard_events(stream) != []

    def test_hint_routed_scans_still_shard(self, tiny_engine):
        with tiny_engine.session(hints=QueryHints(parallelism=4)) as session:
            stream = session.stream(
                QUERIES["exact"], rng=np.random.default_rng(1)
            )
            assert self._shard_events(stream) != []

    def test_declined_routing_is_bit_identical_to_sequential(self, tiny_engine):
        sequential = run(tiny_engine, QUERIES["scrubbing"], parallelism=1)
        routed = run(
            tiny_engine,
            QUERIES["scrubbing"],
            parallelism=None,
            hints=QueryHints(parallelism=4),
        )
        assert fingerprint(routed) == fingerprint(sequential)

    def test_stats_free_verdict(self, tiny_video, detector, engine_config):
        # Planned without catalog statistics, routing falls back to the
        # stats-free rule — scrubbing declines, a scan shards as requested —
        # and explain() shows the verdict the stream runs.
        engine = BlazeIt(detector=detector, config=engine_config)
        engine.register_video("tiny", test_video=tiny_video)
        with engine.session(hints=QueryHints(parallelism=4)) as session:
            for query, verdict, workers in (
                (QUERIES["scrubbing"], "sequential [fallback]", 1),
                (QUERIES["exact"], "threads x 4 [fallback]", 4),
            ):
                prepared = session.prepare(query)
                assert prepared.explain().parallelism.startswith(verdict)
                stream = prepared.stream(rng=np.random.default_rng(1))
                assert stream.workers == workers
                stream.close()
