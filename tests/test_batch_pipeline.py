"""Oracle tests for the batch-only execution pipeline.

Production code has one path per job — columnar ``frame_features``,
``detect_many``, and the one source cascade behind ``detect_batch`` /
``speculate_batch`` — and each must be bit-for-bit identical, with the same
per-frame ledger accounting, to the scalar reference in ``tests/oracle.py``.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.hints import QueryHints
from repro.core.config import BlazeItConfig
from repro.core.context import ExecutionContext
from repro.core.engine import BlazeIt
from repro.core.events import ExecutionControl
from repro.core.recorded import RecordedDetections
from repro.detection.base import DetectionResult
from repro.detection.columnar import (
    DetectionBatch,
    decode_detection_results,
    encode_detection_results,
)
from repro.errors import ConfigurationError
from repro.index import store as store_module
from repro.index.store import SEGMENT_COLUMNS, VideoIndex
from repro.metrics.runtime import _COUNTERS, ExecutionLedger, RuntimeLedger
from repro.parallel.cache import SharedDetectionCache
from repro.scrubbing.importance import _respects_gap
from repro.specialization.trainer import TrainingConfig
from repro.udf.registry import default_udf_registry
from repro.video.frame_batch import FrameBatch
from repro.video.synthetic import SyntheticVideo

from conftest import make_video_spec
from oracle import (
    detect_batch_reference,
    frame_features_reference,
    index_get_reference,
    reference_detect,
    run_engine_on_oracles,
)


def assert_results_identical(left, right):
    """Field-for-field equality of two DetectionResult lists."""
    assert len(left) == len(right)
    for a, b in zip(left, right, strict=True):
        assert a.frame_index == b.frame_index
        assert a.timestamp == b.timestamp
        assert len(a.detections) == len(b.detections)
        for x, y in zip(a.detections, b.detections, strict=True):
            assert x.object_class == y.object_class
            assert x.confidence == y.confidence
            assert x.box.as_tuple() == y.box.as_tuple()
            assert x.color == y.color
            assert x.color_name == y.color_name
            assert x.track_id == y.track_id
            if x.features is None:
                assert y.features is None
            else:
                assert np.array_equal(x.features, y.features)


def assert_ledgers_agree(ledger, reference, *, wall=True):
    """Equal ``calls``, ``charges`` and **every** execution counter."""
    assert ledger.calls == reference.calls
    # One charge(count=n) against n unit charges: equal up to the order of
    # float additions.
    assert ledger.charges == pytest.approx(reference.charges)
    if isinstance(ledger, ExecutionLedger):
        for counter in _COUNTERS:
            if wall or counter != "wall_seconds":
                assert getattr(ledger, counter) == getattr(reference, counter), counter


# -- columnar features --------------------------------------------------------


class TestFrameFeaturesEquivalence:
    @pytest.fixture(scope="class")
    def dense_video(self) -> SyntheticVideo:
        return SyntheticVideo.generate(
            make_video_spec(name="dense", num_frames=500, seed=11, car_rate=0.08)
        )

    def test_full_video_bitwise_equal(self, dense_video):
        vectorized = dense_video.frame_features(np.arange(500))
        reference = frame_features_reference(dense_video, np.arange(500))
        assert np.array_equal(vectorized, reference)

    @pytest.mark.parametrize(
        "indices",
        [
            [0],
            [499],
            [3, 1, 4, 1, 5, 9, 2, 6],  # out of order, with repeats
            list(range(0, 500, 7)),
        ],
    )
    def test_subsets_bitwise_equal(self, dense_video, indices):
        vectorized = dense_video.frame_features(indices)
        reference = frame_features_reference(dense_video, indices)
        assert np.array_equal(vectorized, reference)

    def test_memo_consistent_across_calls(self, dense_video):
        first = dense_video.frame_features([10, 20])
        second = dense_video.frame_features([20, 10])
        assert np.array_equal(first[0], second[1])
        assert np.array_equal(first[1], second[0])

    def test_returned_rows_are_copies(self, dense_video):
        row = dense_video.frame_features([42])
        row[:] = 0.0
        assert not np.array_equal(dense_video.frame_features([42]), row)

    def test_out_of_range_raises_like_reference(self, dense_video):
        for indices in ([3, 500], [-1]):
            with pytest.raises(IndexError):
                dense_video.frame_features(indices)
            with pytest.raises(IndexError):
                frame_features_reference(dense_video, indices)

    def test_empty_request(self, dense_video):
        assert dense_video.frame_features([]).shape[0] == 0


class TestFrameObjectTable:
    def test_matches_objects_at(self):
        video = SyntheticVideo.generate(
            make_video_spec(name="table", num_frames=200, seed=13, car_rate=0.06)
        )
        frames = np.array([0, 17, 42, 17, 199])
        table = video.frame_object_table(frames)
        for row, frame_index in enumerate(frames):
            objects = video.objects_at(int(frame_index))
            lo, hi = table.offsets[row], table.offsets[row + 1]
            assert hi - lo == len(objects)
            for k, obj in zip(range(lo, hi), objects, strict=True):
                assert table.track_ids[k] == obj.track_id
                assert table.class_names[table.class_codes[k]] == obj.object_class
                assert table.color_names[table.color_codes[k]] == obj.color_name
                assert (
                    table.x_min[k], table.y_min[k], table.x_max[k], table.y_max[k]
                ) == obj.box.as_tuple()
                assert tuple(table.colors[k]) == obj.color


# -- batched detection --------------------------------------------------------


class TestDetectManyEquivalence:
    def test_simulated_detectors_bitwise_equal(self, tiny_video, detector):
        frames = list(range(0, 200))
        sequential = [reference_detect(detector, tiny_video, i) for i in frames]
        batched = detector.detect_many(tiny_video, np.asarray(frames))
        assert_results_identical(sequential, batched)

    def test_fgfa_configuration(self, tiny_video):
        from repro.detection.simulated import SimulatedDetector

        fgfa = SimulatedDetector.fgfa()
        frames = list(range(0, 60))
        assert_results_identical(
            [reference_detect(fgfa, tiny_video, i) for i in frames],
            fgfa.detect_many(tiny_video, frames),
        )


class TestContextDetectBatchEquivalence:
    @pytest.fixture()
    def context(self, tiny_engine):
        return tiny_engine.execution_context("tiny")

    def test_cache_hits_across_batches(self, context):
        ledger = ExecutionLedger()
        context.detect_batch([1, 2, 3], ledger)
        context.detect_batch([2, 3, 4], ledger)
        assert ledger.detector_calls == 4
        assert ledger.detection_cache_hits == 2

    def test_repeats_computed_once(self, tiny_video, detector, monkeypatch):
        """The detector is a pure function; the walk dedupes before it."""
        engine = BlazeIt(detector=detector)
        engine.register_video("live", test_video=tiny_video)
        context = engine.execution_context("live")
        calls = []
        original = type(detector).detect_columns

        def spying(self, video, frame_indices):
            calls.append(list(frame_indices))
            return original(self, video, frame_indices)

        monkeypatch.setattr(type(detector), "detect_columns", spying)
        results = context.detect_batch([5, 5, 9, 5, 9], RuntimeLedger())
        assert calls == [[5, 9]]
        assert_results_identical([results[0], results[2]], [results[1], results[4]])

    def test_a_detector_that_drops_a_frame_fails_loudly(
        self, tiny_video, detector, monkeypatch
    ):
        """The request is assembled from what the tiers returned: a frame no
        tier answered is an error, never another frame's detections."""
        engine = BlazeIt(detector=detector)
        engine.register_video("live", test_video=tiny_video)
        context = engine.execution_context("live")
        original = type(detector).detect_columns
        monkeypatch.setattr(
            type(detector),
            "detect_columns",
            lambda self, video, frames: original(self, video, list(frames)[:-1]),
        )
        with pytest.raises(IndexError, match="none of the batches"):
            context.detect_batch([5, 6, 7], ExecutionLedger())

    def test_cost_scale_applied_once_per_miss(self, context):
        ledger = ExecutionLedger()
        context.detect_batch([1, 2], ledger, cost_scale=0.5)
        expected = context.detector.cost.seconds_per_call * 0.5 * 2
        assert ledger.seconds_for(context.detector.cost.name) == pytest.approx(
            expected
        )

    def test_detect_counts_batch_matches_oracle(self, context):
        frames = np.array([0, 5, 5, 9, 300])
        scalar = [
            r.count("car")
            for r in detect_batch_reference(context, frames, ExecutionLedger())
        ]
        batched = context.detect_counts_batch(frames, "car", ExecutionLedger())
        assert np.array_equal(scalar, batched)


# -- the one source cascade against the one oracle ----------------------------

CASCADE_FRAMES = 240
#: The index covers only a prefix, so its tier both serves and passes.
INDEXED_FRAMES = 192


class FakePrefetcher:
    """Stands in for a ``ShardDriver`` that has some frames ready."""

    def __init__(self, held):
        self.held = dict(held)
        self.asked: list[int] = []

    def take(self, frame_index):
        self.asked.append(frame_index)
        return self.held.get(frame_index)

    def take_many(self, frame_indices):
        taken = [self.take(f) for f in np.asarray(frame_indices).tolist()]
        return DetectionBatch.from_detections([r for r in taken if r is not None])


class TestSourceCascadeMatchesOracle:
    """Every tier may serve — or skip — only what the detector would return,
    and the batch walk accounts for it exactly as the per-frame oracle does."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory, detector):
        video = SyntheticVideo.generate(
            make_video_spec(
                name="cascade", num_frames=CASCADE_FRAMES, seed=31,
                car_rate=0.006, bus_rate=0.002,
            )
        )
        root = tmp_path_factory.mktemp("cascade-index")
        ingest = BlazeIt(detector=detector, index_dir=root)
        ingest.register_video(
            "cascade", test_video=video.slice(0, INDEXED_FRAMES, name="cascade")
        )
        ingest.build_index("cascade", range_size=8, segment_frames=64)
        engine = BlazeIt(detector=detector, index_dir=root)
        engine.register_video("cascade", test_video=video)
        view = engine.execution_context("cascade").index_view
        truth = [detector.detect(video, f) for f in range(CASCADE_FRAMES)]
        served, skipped = view.get(range(INDEXED_FRAMES + 1))
        # One past: no answer.
        assert served.frame_index.tolist() == list(range(INDEXED_FRAMES))
        assert set(skipped.tolist()) == {True, False}
        # Skipping form, exhaustively: whatever the index tier skips has no
        # detections under the detector.
        assert all(
            truth[f].detections == [] for f in served.frame_index[skipped].tolist()
        )
        yield video, detector, view, truth
        view.close()

    @staticmethod
    def build(world, sources, warm, held):
        """One context (and its prefetcher) over the drawn set of sources."""
        video, detector, view, truth = world
        cache = None
        if "cache" in sources:
            cache = SharedDetectionCache(capacity_bytes=64 << 20)
            cache.put_many("cascade", DetectionBatch.from_detections([truth[f] for f in warm]))
        context = ExecutionContext(
            video=video,
            detector=(
                RecordedDetections(video, detector, DetectionBatch.from_detections(truth))
                if "recorded" in sources
                else detector
            ),
            udf_registry=default_udf_registry(),
            config=BlazeItConfig(),
            shared_cache=cache,
            cache_key="cascade",
            index_view=view if "index" in sources else None,
        )
        prefetcher = None
        if "prefetcher" in sources:
            prefetcher = FakePrefetcher({f: truth[f] for f in held})
            context.with_prefetcher(prefetcher)
        return context, prefetcher

    frames = st.integers(0, CASCADE_FRAMES - 1)

    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(st.lists(frames, max_size=12), min_size=1, max_size=3),
        sources=st.sets(st.sampled_from(["cache", "index", "prefetcher", "recorded"])),
        warm=st.sets(frames, max_size=30),
        held=st.sets(frames, max_size=30),
        ledger_type=st.sampled_from([ExecutionLedger, RuntimeLedger, None]),
        cost_scale=st.sampled_from([1.0, 0.5]),
    )
    def test_results_and_every_counter_match(
        self, world, batches, sources, warm, held, ledger_type, cost_scale
    ):
        truth = world[3]
        subject, prefetcher = self.build(world, sources, warm, held)
        reference, reference_prefetcher = self.build(world, sources, warm, held)
        ledger = ledger_type() if ledger_type else None
        reference_ledger = ledger_type() if ledger_type else None
        for batch in batches:
            got = subject.detect_batch(batch, ledger, cost_scale)
            want = detect_batch_reference(
                reference, batch, reference_ledger, cost_scale, reference_prefetcher
            )
            assert_results_identical(got, want)
            # Provenance: whichever tier answered, it is the detector's answer
            # (a recording replays it).
            assert_results_identical(got, [truth[f] for f in batch])
            # One batch of the request, in order, repeats included.
            assert got.frame_index.tolist() == batch
        if ledger is not None:
            assert_ledgers_agree(ledger, reference_ledger)
        if isinstance(ledger, ExecutionLedger):
            assert np.array_equal(ledger.seen_frames, reference_ledger.seen_frames)
        if subject.shared_cache is not None:
            assert subject.shared_cache.stats == reference.shared_cache.stats
        # A later tier is only ever asked for what no earlier tier served.
        if prefetcher is not None:
            assert prefetcher.asked == reference_prefetcher.asked

    @settings(max_examples=50, deadline=None)
    @given(
        batches=st.lists(st.lists(frames, max_size=12), min_size=1, max_size=3),
        object_class=st.sampled_from(["car", "bus"]),
        ledger_type=st.sampled_from([ExecutionLedger, None]),
    )
    def test_count_prepass_skips_only_provable_zeros(
        self, world, batches, object_class, ledger_type
    ):
        """``detect_counts_batch`` answers 0 without a decode only where the
        detector's count is 0; every other occurrence goes through the walk."""
        truth = world[3]
        subject, _ = self.build(world, {"index"}, (), ())
        ledger = ledger_type() if ledger_type else None
        for batch in batches:
            counts = subject.detect_counts_batch(np.array(batch), object_class, ledger)
            assert counts.tolist() == [truth[f].count(object_class) for f in batch]
        if ledger is not None:
            occurrences = sum(len(batch) for batch in batches)
            walked = ledger.detector_calls + ledger.detection_cache_hits
            assert occurrences - ledger.index_skips <= walked <= occurrences

    @settings(max_examples=50, deadline=None)
    @given(
        chunk=st.lists(frames, max_size=12, unique=True),
        sources=st.sets(st.sampled_from(["cache", "index", "recorded"])),
        warm=st.sets(frames, max_size=30),
    )
    def test_speculation_is_the_same_walk_uncharged(self, world, chunk, sources, warm):
        """Same answers; reads the shared cache but never writes it."""
        truth = world[3]
        subject, _ = self.build(world, sources, warm, ())
        before = len(subject.shared_cache) if subject.shared_cache is not None else 0
        assert_results_identical(
            subject.shard_context().speculate_batch(chunk), [truth[f] for f in chunk]
        )
        if subject.shared_cache is not None:
            assert len(subject.shared_cache) == before
            assert subject.shared_cache.stats.hits == len(warm & set(chunk))


# -- the batch index read against its per-frame twin ---------------------------


class TestIndexBatchReadMatchesOracle:
    """``IndexView.get`` gathers and decodes a whole batch per segment; the
    oracle slices and converts one frame at a time from the column files.
    Both must be the live detector's output, whatever the frame list."""

    #: The index covers a prefix: frames past it (and negative ones) have no
    #: answer.  64-frame segments make most batches span several.
    FRAMES, COVERED = 300, 256

    @pytest.fixture(scope="class")
    def worlds(self, tmp_path_factory, detector):
        built = {}
        for name, rates in {
            "multi": dict(car_rate=0.03, bus_rate=0.01),
            "sparse": dict(car_rate=0.004, bus_rate=0.0),
        }.items():
            video = SyntheticVideo.generate(
                make_video_spec(name=name, num_frames=self.FRAMES, seed=41, **rates)
            )
            root = tmp_path_factory.mktemp(f"batch-read-{name}")
            ingest = BlazeIt(detector=detector, index_dir=root)
            ingest.register_video(name, test_video=video.slice(0, self.COVERED, name=name))
            ingest.build_index(name, range_size=8, segment_frames=64)
            engine = BlazeIt(detector=detector, index_dir=root)
            engine.register_video(name, test_video=video)
            context = engine.execution_context(name)
            truth = [detector.detect(video, f) for f in range(self.FRAMES)]
            built[name] = (context, truth)
        sparse_view = built["sparse"][0].index_view
        assert sparse_view.sketch.provably_empty(np.arange(self.COVERED)).any()
        assert {len(r.detections) > 0 for r in built["multi"][1]} == {True, False}
        yield built
        for context, _ in built.values():
            context.index_view.close()

    @settings(max_examples=120, deadline=None)
    @given(
        which=st.sampled_from(["multi", "sparse"]),
        frames=st.lists(st.integers(-4, FRAMES + 3), max_size=40),
        blank=st.sets(st.sampled_from(["features", "color", "color_name"])),
        stamp_tracks=st.booleans(),
    )
    def test_any_frame_list_reads_what_the_oracle_and_the_detector_do(
        self, worlds, which, frames, blank, stamp_tracks
    ):
        context, truth = worlds[which]
        view = context.index_view
        want = {frame: index_get_reference(view, frame) for frame in frames}
        got, skipped = view.get(frames)
        # Unsorted, repeated, out of range, empty: covered frames only, in
        # input order, repeats included.
        covered = [f for f in frames if 0 <= f < self.COVERED]
        assert got.frame_index.tolist() == covered
        assert all(want[f] is None for f in want if f not in covered)
        for result, was_skipped in zip(got, skipped.tolist(), strict=True):
            reference, reference_skipped = want[result.frame_index]
            assert was_skipped == reference_skipped
            assert_results_identical([result], [reference])
            assert_results_identical([result], [truth[result.frame_index]])

        # Through the engine's context: the counters the index tier owns.
        in_video = [f for f in frames if 0 <= f < self.FRAMES]
        ledger, reference_ledger = ExecutionLedger(), ExecutionLedger()
        assert_results_identical(
            context.detect_batch(in_video, ledger),
            detect_batch_reference(context, in_video, reference_ledger),
        )
        assert_ledgers_agree(ledger, reference_ledger)

        # The codec alone, on the same results with optional fields blanked.
        results = [
            DetectionResult(
                frame_index=result.frame_index,
                timestamp=result.timestamp,
                detections=[
                    dataclasses.replace(
                        det,
                        track_id=k if stamp_tracks else None,
                        **({name: None for name in blank} if k % 2 else {}),
                    )
                    for k, det in enumerate(result.detections)
                ],
            )
            for result in got
        ]
        assert_results_identical(
            decode_detection_results(
                encode_detection_results(DetectionBatch.from_detections(results))
            ),
            results,
        )

    def test_racing_first_reads_map_each_segment_consistently(self, worlds, monkeypatch):
        """Segments are mapped and validated lazily: more readers than cores
        racing on a fresh index must all get the detector's answer, and each
        column file is loaded once, under the first-load lock.  (Unlocked,
        ``np.load``'s header parse could raise ``SystemError: AST constructor
        recursion depth mismatch`` on CPython 3.11.)"""
        context, truth = worlds["multi"]
        index = VideoIndex.open(context.index_view.index.directory)
        frames = list(range(self.COVERED))[::-3]
        outcomes: list = []
        loads: list = []
        real_load = np.load

        def load(path, *args, **kwargs):
            loads.append((str(path), store_module._FIRST_LOAD.locked()))
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(store_module.np, "load", load)

        def read():
            try:
                outcomes.append(index.results_for(frames))
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                outcomes.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            index.close()
        assert len(outcomes) == 8
        for outcome in outcomes:
            assert isinstance(outcome, DetectionBatch), outcome
            assert_results_identical(outcome, [truth[f] for f in frames])
        paths = [path for path, _ in loads]
        assert len(paths) == len(set(paths)) == len(index.segments) * len(SEGMENT_COLUMNS)
        assert all(locked for _, locked in loads)

    def test_decoded_features_outlive_the_maps(self, worlds):
        """Nothing a read returns points into a memory map: after ``close()``
        every feature vector is still the detector's, in memory it owns."""
        context, truth = worlds["multi"]
        index = VideoIndex.open(context.index_view.index.directory)
        results = index.results_for(np.arange(self.COVERED)[::-1])
        index.close()
        assert index._columns == {} and index._maps == {}
        features = [d.features for r in results for d in r.detections]
        assert features and all(f.flags.owndata and f.base is None for f in features)
        assert_results_identical(results, truth[: self.COVERED][::-1])


# -- gap checking -------------------------------------------------------------


class TestRespectsGap:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            accepted = sorted(rng.choice(100, size=6, replace=False).tolist())
            frame = int(rng.integers(0, 100))
            gap = int(rng.integers(0, 12))
            brute = all(abs(frame - other) >= gap for other in accepted)
            assert _respects_gap(frame, accepted, gap) == brute

    def test_zero_gap_always_passes(self):
        assert _respects_gap(5, [5, 6], 0)

    def test_empty_accepted(self):
        assert _respects_gap(5, [], 3)


# -- end-to-end: all four query classes, batch sizes, scalar oracles ----------


QUERIES = {
    "aggregate": (
        "SELECT FCOUNT(*) FROM batchy WHERE class = 'car' "
        "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
    ),
    "scrubbing": (
        "SELECT timestamp FROM batchy GROUP BY timestamp "
        "HAVING COUNT(class = 'car') >= 1 LIMIT 5 GAP 10"
    ),
    "selection": "SELECT * FROM batchy WHERE class = 'car'",
    "exact": "SELECT * FROM batchy",
}


def result_fingerprint(kind: str, result) -> tuple:
    """The observable output of a query result, for cross-mode comparison."""
    if kind == "aggregate":
        return (result.value, result.samples_used, result.method)
    if kind == "scrubbing":
        return (tuple(result.frames), result.satisfied, result.method)
    if kind == "selection":
        return (
            tuple(result.matched_frames),
            tuple(
                (r.frame_index, r.object_class, r.trackid) for r in result.records
            ),
            result.method,
        )
    return (
        tuple((r.frame_index, r.object_class, r.trackid) for r in result.records),
        result.method,
    )


class TestQueryClassEquivalence:
    @pytest.fixture(scope="class")
    def engine(self):
        training = TrainingConfig(epochs=3, batch_size=32, min_examples=16)
        config = BlazeItConfig(training=training, min_training_positives=20, seed=3)
        test = SyntheticVideo.generate(
            make_video_spec(name="batchy", num_frames=400, seed=21)
        )
        train = SyntheticVideo.generate(
            make_video_spec(name="batchy-train", num_frames=400, seed=22)
        )
        heldout = SyntheticVideo.generate(
            make_video_spec(name="batchy-heldout", num_frames=400, seed=23)
        )
        engine = BlazeIt(config=config)
        engine.register_video(
            "batchy", test_video=test, train_video=train, heldout_video=heldout
        )
        engine.record_test_day("batchy")
        return engine

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_identical_across_batch_sizes(self, engine, kind):
        fingerprints = []
        for batch_size in (1, 7, 64):
            session = engine.session(hints=QueryHints(batch_size=batch_size))
            result = session.execute(QUERIES[kind], rng=np.random.default_rng(42))
            fingerprints.append(result_fingerprint(kind, result))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_production_identical_to_scalar_oracles(self, engine, kind, monkeypatch):
        production = engine.session().execute(
            QUERIES[kind], rng=np.random.default_rng(7)
        )
        run_engine_on_oracles(monkeypatch)
        scalar = engine.session().execute(QUERIES[kind], rng=np.random.default_rng(7))
        assert result_fingerprint(kind, production) == result_fingerprint(kind, scalar)
        # Wall time is the one counter two runs never share.
        assert_ledgers_agree(
            production.execution_ledger, scalar.execution_ledger, wall=False
        )


# -- FrameBatch ---------------------------------------------------------------


class TestFrameBatch:
    def test_lazy_features_shared_by_select(self, tiny_video):
        batch = FrameBatch(tiny_video, [1, 2, 3, 4])
        assert not batch.features_loaded
        features = batch.features
        narrowed = batch.select(np.array([True, False, True, False]))
        assert narrowed.features_loaded
        assert np.array_equal(narrowed.features, features[[0, 2]])
        assert np.array_equal(narrowed.indices, [1, 3])

    def test_default_covers_whole_video(self, tiny_video):
        assert len(FrameBatch(tiny_video)) == tiny_video.num_frames

    def test_mismatched_features_rejected(self, tiny_video):
        with pytest.raises(ValueError):
            FrameBatch(tiny_video, [1, 2, 3], features=np.zeros((2, 4)))


class TestBatchSizeHint:
    def test_invalid_batch_size_rejected(self, tiny_engine):
        for bad in (0, -3, True, 2.5):
            with pytest.raises(ConfigurationError):
                QueryHints(batch_size=bad)
            with pytest.raises(ConfigurationError):
                ExecutionControl(batch_size=bad)
        # Regression: a float reached the shard workers, whose slicing died
        # with a TypeError while the driver recomputed every frame itself.
        with tiny_engine.session() as session:
            prepared = session.prepare("SELECT * FROM tiny WHERE class = 'car'")
            with pytest.raises(ConfigurationError):
                prepared.stream(batch_size=2.5, parallelism=2)

    def test_describe_mentions_batch_size(self):
        assert "batch_size=128" in QueryHints(batch_size=128).describe()

    def test_hint_reaches_execution_control(self, tiny_engine):
        session = tiny_engine.session(hints=QueryHints(batch_size=17))
        stream = session.stream("SELECT * FROM tiny WHERE class = 'car'")
        assert stream.control.batch_size == 17
        stream.close()
