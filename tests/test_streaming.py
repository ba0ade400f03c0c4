"""Tests for the streaming execution protocol.

Covers the acceptance criteria of the streaming redesign: every query class
emits at least one incremental event before ``Completed``, drained-stream
results are identical to blocking ``execute()`` results under a fixed RNG
stream, and ``limit`` / ``stop_when`` conditions terminate execution with
strictly fewer detector calls than a full run (asserted via the
``ExecutionLedger``).
"""

import numpy as np
import pytest

from repro.api import (
    Completed,
    EstimateUpdate,
    ExecutionLedger,
    Progress,
    QueryHints,
    ScrubbingHit,
    SelectionWindow,
    StopConditions,
)
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.events import ShardProgress
from repro.errors import ConfigurationError

AGG_QUERY = (
    "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' "
    "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
)
SCRUB_QUERY = (
    "SELECT timestamp FROM tiny GROUP BY timestamp "
    "HAVING SUM(class='car') >= 1 LIMIT 3"
)
SELECT_QUERY = "SELECT * FROM tiny WHERE class = 'car'"
EXACT_QUERY = "SELECT timestamp FROM tiny"

ALL_QUERIES = {
    "aggregate": AGG_QUERY,
    "scrubbing": SCRUB_QUERY,
    "selection": SELECT_QUERY,
    "exact": EXACT_QUERY,
}


@pytest.fixture(scope="module")
def aqp_engine(tiny_video, detector, fast_training_config):
    """An engine forced onto plain AQP (specialization never has enough data)."""
    engine = BlazeIt(
        detector=detector,
        config=BlazeItConfig(
            training=fast_training_config,
            min_training_positives=10**6,
            seed=99,
        ),
    )
    engine.register_video("tiny", test_video=tiny_video)
    engine.record_test_day("tiny")
    return engine


class TestStreamBlockingEquivalence:
    @pytest.mark.parametrize("kind", sorted(ALL_QUERIES))
    def test_drained_stream_equals_blocking_execute(self, tiny_engine, kind):
        """Same prepared query, same RNG stream: identical results."""
        query = ALL_QUERIES[kind]
        session = tiny_engine.session()
        prepared = session.prepare(query)
        blocking = prepared.execute(rng=np.random.default_rng(11))
        events = list(prepared.stream(rng=np.random.default_rng(11)))

        assert isinstance(events[-1], Completed)
        incremental = events[:-1]
        assert len(incremental) >= 1
        assert not any(isinstance(e, Completed) for e in incremental)
        streamed = events[-1].result
        assert streamed.kind == kind
        assert streamed == blocking

    def test_aqp_stream_shows_shrinking_interval(self, aqp_engine):
        events = list(
            aqp_engine.session().stream(
                AGG_QUERY, rng=np.random.default_rng(2), error_within=0.02
            )
        )
        updates = [e for e in events if isinstance(e, EstimateUpdate)]
        assert len(updates) >= 1
        final = events[-1].result
        assert updates[-1].estimate == pytest.approx(final.value)
        assert updates[-1].samples_used == final.samples_used

    def test_every_execution_carries_an_execution_ledger(self, tiny_engine):
        for query in ALL_QUERIES.values():
            result = tiny_engine.session().execute(query)
            ledger = result.execution_ledger
            assert isinstance(ledger, ExecutionLedger)
            assert ledger.detector_calls > 0
            assert ledger.frames_decoded > 0
            assert ledger.events_emitted > ledger.batches_emitted >= 1
            assert ledger.wall_seconds > 0.0

    def test_stream_event_count_matches_ledger(self, tiny_engine):
        events = list(tiny_engine.session().stream(EXACT_QUERY))
        ledger = events[-1].result.execution_ledger
        assert ledger.events_emitted == len(events)
        assert ledger.batches_emitted == len(events) - 1

    def test_lazy_stream_not_contaminated_by_interleaved_execution(
        self, tiny_video, detector, fast_training_config
    ):
        """The RNG stream drawn at stream creation binds at iteration time,
        so executions between creating and draining a stream do not change
        the streamed result."""

        def make_prepared():
            engine = BlazeIt(
                detector=detector,
                config=BlazeItConfig(
                    training=fast_training_config,
                    min_training_positives=10**6,
                    seed=1234,
                ),
            )
            engine.register_video("tiny", test_video=tiny_video)
            engine.record_test_day("tiny")
            return engine.session().prepare(AGG_QUERY)

        undisturbed = make_prepared()
        reference = undisturbed.stream().drain().value

        disturbed = make_prepared()
        stream = disturbed.stream()
        disturbed.execute()  # interleaved execution, draws its own RNG stream
        assert stream.drain().value == reference

        # Same guarantee for a stream that is already part-way through when
        # another execution runs on the shared context.
        part_way = make_prepared()
        stream = part_way.stream()
        next(stream)
        part_way.execute()
        assert stream.drain().value == reference


class TestEarlyTermination:
    def test_scrubbing_stop_limit_saves_detector_calls(self, tiny_engine):
        session = tiny_engine.session()
        prepared = session.prepare(SCRUB_QUERY)
        full = prepared.execute()
        assert full.satisfied  # the event is common enough to find 3 of

        stream = prepared.stream(stop=StopConditions(limit=1))
        events = list(stream)
        limited = events[-1].result
        hits = [e for e in events if isinstance(e, ScrubbingHit)]
        assert len(hits) == 1
        assert len(limited.frames) == 1
        assert stream.stop_reason == "limit"
        # ``satisfied`` keeps its blocking meaning: the query's own LIMIT 3
        # was not reached, the stop condition just ended the run early.
        assert limited.limit == 3
        assert not limited.satisfied
        assert (
            limited.execution_ledger.detector_calls
            < full.execution_ledger.detector_calls
        )

    def test_scrubbing_hits_stream_before_completion(self, tiny_engine):
        events = list(tiny_engine.session().stream(SCRUB_QUERY))
        hit_positions = [
            i for i, e in enumerate(events) if isinstance(e, ScrubbingHit)
        ]
        assert hit_positions and hit_positions[0] < len(events) - 1
        final = events[-1].result
        assert sorted(e.frame_index for e in events if isinstance(e, ScrubbingHit)) == (
            final.frames
        )

    def test_aggregate_detector_budget_saves_detector_calls(self, aqp_engine):
        session = aqp_engine.session()
        prepared = session.prepare(AGG_QUERY)
        full = prepared.execute(rng=np.random.default_rng(5), error_within=0.02)
        assert full.execution_ledger.detector_calls > 25

        events = list(
            prepared.stream(
                rng=np.random.default_rng(5),
                stop=StopConditions(max_detector_calls=25),
                error_within=0.02,
            )
        )
        capped = events[-1].result
        assert capped.execution_ledger.detector_calls <= 25
        assert (
            capped.execution_ledger.detector_calls
            < full.execution_ledger.detector_calls
        )
        assert events[-1].stop_reason == "max_detector_calls"

    def test_aggregate_ci_width_stop(self, aqp_engine):
        session = aqp_engine.session()
        prepared = session.prepare(AGG_QUERY)
        full = prepared.execute(rng=np.random.default_rng(6), error_within=0.02)

        stream = prepared.stream(
            rng=np.random.default_rng(6),
            stop=StopConditions(ci_width=10.0),
            error_within=0.02,
        )
        relaxed = stream.drain()
        assert stream.stop_reason == "ci_width"
        assert relaxed.half_width <= 10.0
        assert relaxed.samples_used <= full.samples_used

    def test_selection_stop_limit_saves_detector_calls(self, tiny_engine):
        session = tiny_engine.session()
        prepared = session.prepare(SELECT_QUERY)
        full = prepared.execute()
        assert len(full.matched_frames) > 1

        events = list(
            prepared.stream(stop=StopConditions(limit=1), batch_size=4)
        )
        limited = events[-1].result
        windows = [e for e in events if isinstance(e, SelectionWindow)]
        assert len(windows) == 1
        assert events[-1].stop_reason == "limit"
        assert (
            limited.execution_ledger.detector_calls
            < full.execution_ledger.detector_calls
        )
        # The limited result is a prefix of the full answer.
        assert set(limited.matched_frames) <= set(full.matched_frames)

    def test_exact_detector_budget(self, tiny_engine):
        session = tiny_engine.session()
        prepared = session.prepare(EXACT_QUERY)
        full = prepared.execute()

        stream = prepared.stream(stop=StopConditions(max_detector_calls=10))
        partial = stream.drain()
        assert partial.execution_ledger.detector_calls == 10
        assert (
            partial.execution_ledger.detector_calls
            < full.execution_ledger.detector_calls
        )
        assert stream.stop_reason == "max_detector_calls"
        # Blocking callers see the truncation on the result itself.
        assert partial.stop_reason == "max_detector_calls"
        assert full.stop_reason is None

    def test_cancel_finalises_partial_result(self, tiny_engine):
        stream = tiny_engine.session().stream(EXACT_QUERY, batch_size=16)
        seen = [next(stream), next(stream)]
        assert all(isinstance(e, Progress) for e in seen)
        stream.cancel()
        result = stream.drain()
        assert stream.stop_reason == "cancelled"
        assert result.execution_ledger.detector_calls < 400

    def test_until_helper_cancels_on_predicate(self, aqp_engine):
        stream = aqp_engine.session().stream(
            AGG_QUERY, rng=np.random.default_rng(8), error_within=0.02
        )
        events = stream.until(lambda e: isinstance(e, EstimateUpdate))
        assert isinstance(events[-1], Completed)
        assert any(isinstance(e, EstimateUpdate) for e in events)
        assert stream.result is events[-1].result

    def test_stop_conditions_default_from_hints(self, tiny_engine):
        hints = QueryHints(stop_conditions=StopConditions(limit=1))
        events = list(tiny_engine.session().stream(SCRUB_QUERY, hints=hints))
        assert len(events[-1].result.frames) == 1
        assert "stop(limit=1)" in hints.describe()

    def test_stop_condition_validation(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            StopConditions(limit=0)
        with pytest.raises(ConfigurationError, match="positive"):
            StopConditions(ci_width=-0.5)
        with pytest.raises(ConfigurationError, match=">= 1"):
            StopConditions(max_detector_calls=0)
        with pytest.raises(ConfigurationError, match="StopConditions"):
            QueryHints(stop_conditions="soon")  # type: ignore[arg-type]


class TestScrubbingFallbackDedupe:
    def test_detection_cache_dedupes_repeat_frames(self, tiny_engine):
        """The satellite mechanism itself: within one execution, a frame is
        detected (and charged) once; revisits replay the cached result."""
        from repro.metrics.runtime import ExecutionLedger

        context = tiny_engine.execution_context("tiny")
        ledger = ExecutionLedger()
        first = context.detect_batch([7], ledger)
        again = context.detect_batch([7], ledger)
        assert again is first  # the cached batch itself, not a copy
        assert again.frame_index.tolist() == [7]
        assert ledger.detector_calls == 1
        assert ledger.detection_cache_hits == 1
        assert ledger.frames_decoded == 1
        assert ledger.seen_frames.tolist() == [7]
        copy = ledger.snapshot()
        assert copy.detector_calls == 1 and copy.detection_cache_hits == 1

    def test_exhaustive_fallback_sweeps_only_unexamined_frames(self, tiny_engine):
        """An unsatisfiable limit with a GAP leaves gap-blocked frames
        unexamined, which triggers the fallback sweep; frames the ranked
        scan already examined are excluded via the ledger's seen-frame set,
        so the detector is charged at most once per frame."""
        query = (
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 1 LIMIT 399 GAP 5"
        )
        events = list(tiny_engine.session().stream(query))
        result = events[-1].result
        assert result.method == "importance"
        assert not result.satisfied
        phases = [e.phase for e in events if isinstance(e, Progress)]
        assert "exhaustive_fallback" in phases
        ledger = result.execution_ledger
        assert ledger.detector_calls == ledger.frames_decoded < 400
        assert result.detection_calls == ledger.detector_calls

    def test_no_fallback_when_ranked_scan_examined_everything(self, tiny_engine):
        """Without a GAP the ranked scan is a full permutation, so the
        fallback could never accept a new frame and is skipped."""
        query = (
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 1 LIMIT 399"
        )
        events = list(tiny_engine.session().stream(query))
        result = events[-1].result
        assert not result.satisfied
        phases = [e.phase for e in events if isinstance(e, Progress)]
        assert "exhaustive_fallback" not in phases
        ledger = result.execution_ledger
        assert ledger.detector_calls == ledger.frames_decoded == 400
        assert ledger.detection_cache_hits == 0


class TestStreamAccounting:
    """The session stream is the one place an execution is counted: the
    ledger's event counts match what the stream yielded, on every path."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_event_counts_match_the_stream(self, tiny_engine, parallelism):
        stream = tiny_engine.session().stream(
            EXACT_QUERY, batch_size=64, parallelism=parallelism
        )
        events = list(stream)
        counted = [e for e in events if not isinstance(e, ShardProgress)]
        assert isinstance(events[-1], Completed)
        assert sum(isinstance(e, Completed) for e in events) == 1
        ledger = stream.result.execution_ledger
        assert ledger.events_emitted == len(counted)
        assert ledger.batches_emitted == len(counted) - 1
        assert ledger.wall_seconds > 0.0

    def test_close_mid_stream_ends_it(self, tiny_engine):
        stream = tiny_engine.session().stream(EXACT_QUERY, batch_size=16)
        assert isinstance(next(stream), Progress)
        stream.close()
        assert stream.finished
        assert stream.result is None
        assert list(stream) == []


class TestSessionStats:
    def test_streams_counted_separately_from_executions(self, tiny_engine):
        session = tiny_engine.session()
        session.execute(EXACT_QUERY)
        assert (session.stats.executions, session.stats.streams) == (1, 0)
        list(session.stream(EXACT_QUERY))
        assert (session.stats.executions, session.stats.streams) == (2, 1)
