"""Tests for the persistent ingest-time index (build, serve, skip, crash).

The load-bearing property is invariant I7: index evidence is an *upper
bound*, so serving queries from the index — decoding persisted detections
for occupied ranges, synthesizing empty results for provably-empty ones,
skipping frames a sketch proof rules out — never changes results.  Every
query class is checked bit-for-bit against the index-less path at several
parallelism levels.  The rest of the suite covers the atomic commit
protocol under simulated crashes (previous generation stays readable, no
litter), sketch-driven shard pruning (exact test-day proofs beat the
catalog's held-out proportional approximation), warm-start (a fresh
process answers hot queries with zero detector calls) and the
``use_index`` hint.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro.index.builder as builder_mod
import repro.persist as persist
from repro.api.hints import QueryHints
from repro.core.engine import BlazeIt
from repro.detection.base import BoundingBox, Detection, DetectionResult
from repro.errors import ConfigurationError
from repro.index.sketches import RangeSketch
from repro.index.store import MANIFEST_NAME, PersistentIndex, VideoIndex
from repro.parallel.cache import SharedDetectionCache
from repro.parallel.shards import VideoSharder
from repro.service.manager import ServiceConfig, ServiceManager
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


def make_engine(detector, engine_config, *, index_dir=None):
    """A fresh engine with a private shared cache (no cross-test bleed)."""
    return BlazeIt(
        detector=detector,
        config=engine_config,
        shared_cache=SharedDetectionCache(capacity_bytes=64 << 20),
        index_dir=index_dir,
    )


def make_tiny_engine(
    tiny_video, tiny_labeled_set, detector, engine_config, *, index_dir=None
):
    engine = make_engine(detector, engine_config, index_dir=index_dir)
    engine.register_video("tiny", test_video=tiny_video)
    engine.attach_labeled_set("tiny", tiny_labeled_set)
    return engine


@pytest.fixture(scope="module")
def index_root(
    tmp_path_factory, tiny_video, tiny_labeled_set, detector, engine_config
):
    """A committed index generation for the tiny video (built once)."""
    root = tmp_path_factory.mktemp("index-store")
    engine = make_tiny_engine(
        tiny_video, tiny_labeled_set, detector, engine_config, index_dir=root
    )
    report = engine.build_index("tiny", range_size=16, segment_frames=128)
    return root, report


def run(engine, query, parallelism=1, seed=42, hints=None):
    with engine.session() as session:
        return session.prepare(query, hints=hints).execute(
            rng=np.random.default_rng(seed), parallelism=parallelism
        )


def value_fingerprint(result):
    """Everything observable about a result *except* runtime accounting.

    The indexed and index-less paths legitimately differ in detector calls
    and cache/index counters — that is the whole point — so identity is
    asserted over the answer itself: values, frames, hit sets, records
    (including feature vectors), methods and stop reasons.
    """
    base = (result.kind, result.method, result.stop_reason)
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


def results_identical(first, second):
    assert value_fingerprint(first) == value_fingerprint(second)


# -- build and read ----------------------------------------------------------------


class TestBuildAndRead:
    def test_build_report(self, index_root, tiny_video):
        _, report = index_root
        assert report["generation"] == 1
        assert report["num_frames"] == tiny_video.num_frames
        assert report["segments"] == 4
        assert report["detector_calls"] == tiny_video.num_frames
        assert report["has_statistics"] is True
        assert set(report["classes"]) == {"car", "bus"}

    def test_persisted_frames_are_bit_identical_to_detector(
        self, index_root, tiny_video, detector
    ):
        root, _ = index_root
        store = PersistentIndex(root)
        index = store.entries()[0]
        try:
            frames = (0, 1, 57, 255, tiny_video.num_frames - 1)
            for frame, stored in zip(frames, index.results_for(frames), strict=True):
                live = detector.detect(tiny_video, frame)
                assert stored.frame_index == live.frame_index
                assert stored.timestamp == live.timestamp
                assert len(stored.detections) == len(live.detections)
                for got, want in zip(stored.detections, live.detections):
                    assert got.object_class == want.object_class
                    assert got.confidence == want.confidence
                    assert got.box == want.box
                    assert got.color == want.color
                    assert got.color_name == want.color_name
                    assert np.array_equal(
                        np.asarray(got.features), np.asarray(want.features)
                    )
        finally:
            index.close()

    def test_sketch_round_trips_through_commit(self, index_root, tiny_video, detector):
        root, _ = index_root
        index = PersistentIndex(root).entries()[0]
        try:
            results = [
                detector.detect(tiny_video, frame)
                for frame in range(tiny_video.num_frames)
            ]
            rebuilt = RangeSketch.from_results(
                results, tiny_video.num_frames, range_size=16
            )
            assert index.sketch.class_table == rebuilt.class_table
            assert np.array_equal(index.sketch.presence_frames, rebuilt.presence_frames)
            assert np.array_equal(index.sketch.total_count, rebuilt.total_count)
            assert np.array_equal(index.sketch.max_count, rebuilt.max_count)
            assert np.array_equal(index.sketch.occupied_frames, rebuilt.occupied_frames)
        finally:
            index.close()

    def test_statistics_entry_is_persisted(self, index_root, tiny_video):
        root, _ = index_root
        index = PersistentIndex(root).entries()[0]
        try:
            stats = index.statistics()
            assert stats is not None
            assert stats.num_frames == tiny_video.num_frames
        finally:
            index.close()

    def test_open_requires_matching_cache_key(self, index_root):
        root, _ = index_root
        store = PersistentIndex(root)
        assert store.open("tiny", "some-other-detector-identity") is None

    def test_build_without_store_is_a_configuration_error(
        self, tiny_video, tiny_labeled_set, detector, engine_config
    ):
        engine = make_tiny_engine(
            tiny_video, tiny_labeled_set, detector, engine_config
        )
        with pytest.raises(ConfigurationError):
            engine.build_index("tiny")

    def test_invalid_build_parameters_rejected(
        self, tmp_path, tiny_video, tiny_labeled_set, detector, engine_config
    ):
        engine = make_tiny_engine(
            tiny_video, tiny_labeled_set, detector, engine_config,
            index_dir=tmp_path / "store",
        )
        with pytest.raises(ConfigurationError):
            engine.build_index("tiny", segment_frames=0)
        with pytest.raises(ConfigurationError):
            engine.build_index("tiny", range_size=0)


# -- crash safety of the commit protocol -------------------------------------------


class _DiesMidWrite(Exception):
    """Stands in for SIGKILL arriving during an index build."""


def _crash_after_writes(monkeypatch, survive: int):
    """Let ``survive`` atomic writes finish, then die mid-payload."""
    real_fdopen = os.fdopen
    state = {"left": survive}

    def exploding_fdopen(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)
        if state["left"] <= 0:
            real_write = handle.write

            def write(data):
                real_write(data[: max(1, len(data) // 2)])
                raise _DiesMidWrite()

            handle.write = write
        state["left"] -= 1
        return handle

    monkeypatch.setattr(persist.os, "fdopen", exploding_fdopen)


def _crash_at_manifest_commit(monkeypatch):
    """Die exactly at the commit point (segments already renamed into place)."""
    real_write = builder_mod.atomic_write_text

    def exploding(path, text):
        if path.name == MANIFEST_NAME:
            raise _DiesMidWrite()
        real_write(path, text)

    monkeypatch.setattr(builder_mod, "atomic_write_text", exploding)


@pytest.fixture()
def small_indexed_engine(tmp_path, detector, engine_config):
    """A 64-frame video with one committed generation (fast rebuilds)."""
    root = tmp_path / "store"
    engine = make_engine(detector, engine_config, index_dir=root)
    video = SyntheticVideo.generate(
        make_video_spec(name="small", num_frames=64, seed=13)
    )
    engine.register_video("small", test_video=video)
    report = engine.build_index(
        "small", range_size=8, segment_frames=32, include_statistics=False
    )
    assert report["generation"] == 1
    return engine, root, video


def _video_dir(root):
    children = [child for child in root.iterdir() if child.is_dir()]
    assert len(children) == 1
    return children[0]


class TestCrashSafety:
    def test_crash_mid_segment_write_keeps_previous_generation(
        self, small_indexed_engine, detector, monkeypatch
    ):
        engine, root, video = small_indexed_engine
        # 14 columns per segment: die midway through the second segment.
        _crash_after_writes(monkeypatch, survive=20)
        with pytest.raises(_DiesMidWrite):
            engine.build_index(
                "small", range_size=8, segment_frames=32, include_statistics=False
            )
        monkeypatch.undo()

        directory = _video_dir(root)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["generation"] == 1
        # No litter: the partial build is gone, only the committed
        # generation and the manifest remain.
        assert sorted(child.name for child in directory.iterdir()) == [
            "gen-000001",
            MANIFEST_NAME,
        ]
        index = VideoIndex.open(directory)
        try:
            live = detector.detect(video, 5)
            assert index.results_for([5])[0].count() == live.count()
        finally:
            index.close()

    def test_crash_at_manifest_commit_keeps_previous_generation(
        self, small_indexed_engine, monkeypatch
    ):
        engine, root, _video = small_indexed_engine
        _crash_at_manifest_commit(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            engine.build_index(
                "small", range_size=8, segment_frames=32, include_statistics=False
            )
        monkeypatch.undo()

        directory = _video_dir(root)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["generation"] == 1
        assert sorted(child.name for child in directory.iterdir()) == [
            "gen-000001",
            MANIFEST_NAME,
        ]
        assert VideoIndex.open(directory).num_frames == 64

    def test_next_build_sweeps_hard_kill_litter(self, small_indexed_engine):
        engine, root, _video = small_indexed_engine
        directory = _video_dir(root)
        # Simulate a SIGKILL that left a half-built tmp dir and an orphaned
        # generation the manifest never pointed at.
        (directory / "gen-000002.tmp").mkdir()
        (directory / "gen-000002.tmp" / "seg-000000.box.npy").write_bytes(b"junk")
        (directory / "gen-000007").mkdir()

        report = engine.build_index(
            "small", range_size=8, segment_frames=32, include_statistics=False
        )
        assert report["generation"] == 2
        assert sorted(child.name for child in directory.iterdir()) == [
            "gen-000002",
            MANIFEST_NAME,
        ]

    def test_rebuild_bumps_generation_and_reuses_cache(self, small_indexed_engine):
        engine, root, video = small_indexed_engine
        report = engine.build_index(
            "small", range_size=8, segment_frames=32, include_statistics=False
        )
        # The first build populated the shared cache, so the rebuild pays
        # zero detector calls — and queries see the new generation.
        assert report["generation"] == 2
        assert report["detector_calls"] == 0
        assert report["cache_hits"] == video.num_frames
        assert engine.index_status()["videos"][0]["generation"] == 2


# -- sketch-driven shard pruning (satellite: sharder rates from the index) ---------


def _rewrite(path, change):
    values = np.load(path)
    np.save(path, change(values))


def _cut_file_short(path):
    path.write_bytes(path.read_bytes()[:-8])


def _bump(position, amount):
    def change(values):
        values[position] += amount
        return values

    return change


class TestSegmentValidation:
    """The batch read gathers rows through offsets stored in the segment, so
    a segment whose columns disagree is refused when it is first mapped — a
    typed error naming the file, never another frame's detections."""

    @pytest.mark.parametrize(
        "column, corrupt, complaint",
        [
            ("confidence", _cut_file_short, "unreadable index column"),
            ("box", lambda path: _rewrite(path, lambda v: v[:-1]), "inconsistent"),
            ("track_id", lambda path: _rewrite(path, lambda v: v[:-1]), "inconsistent"),
            ("det_offsets", lambda path: _rewrite(path, lambda v: v[:-1]), "inconsistent"),
            ("det_offsets", lambda path: _rewrite(path, _bump(3, 10_000)), "inconsistent"),
            ("det_offsets", lambda path: _rewrite(path, _bump(-1, 1)), "inconsistent"),
            ("class_code", lambda path: _rewrite(path, _bump(0, 50)), "inconsistent"),
            ("features_flat", lambda path: _rewrite(path, lambda v: v[:-1]), "inconsistent"),
            ("frame_index", lambda path: _rewrite(path, lambda v: v + 1), "inconsistent"),
            ("timestamp", lambda path: _rewrite(path, lambda v: v[1:]), "inconsistent"),
        ],
    )
    def test_corrupt_segment_is_a_typed_error_never_an_answer(
        self, small_indexed_engine, detector, engine_config, column, corrupt, complaint
    ):
        _engine, root, video = small_indexed_engine
        directory = _video_dir(root)
        path = directory / "gen-000001" / f"seg-000000.{column}.npy"
        assert np.load(directory / "gen-000001" / "seg-000000.class_code.npy").size > 0
        corrupt(path)

        index = VideoIndex.open(directory)
        try:
            with pytest.raises(ConfigurationError, match=complaint) as refused:
                index.results_for([5])
            assert str(path) in str(refused.value)
            # The other segment is intact and still serves.
            assert index.results_for([40])[0].count() == detector.detect(video, 40).count()
        finally:
            index.close()

        fresh = make_engine(detector, engine_config, index_dir=root)
        fresh.register_video("small", test_video=video)
        with pytest.raises(ConfigurationError, match=column):
            run(fresh, "SELECT * FROM small")


def _synthetic_results(num_frames, class_frames):
    """One result per frame; ``class_frames`` maps class -> {frame: count}."""
    results = []
    for frame in range(num_frames):
        detections = []
        for name, frames in class_frames.items():
            for _ in range(frames.get(frame, 0)):
                detections.append(
                    Detection(
                        frame_index=frame,
                        timestamp=frame / 30.0,
                        object_class=name,
                        box=BoundingBox(0.0, 0.0, 10.0, 10.0),
                        confidence=0.9,
                    )
                )
        results.append(
            DetectionResult(
                frame_index=frame, timestamp=frame / 30.0, detections=detections
            )
        )
    return results


class TestSharderSketchRates:
    def test_sketch_prunes_what_heldout_stats_cannot(self, tiny_engine):
        # On the *test day* cars only appear in the last quarter; the
        # held-out day saw cars throughout, so the catalog's proportional
        # approximation keeps every shard alive.
        stats = tiny_engine.catalog.get("tiny")
        assert stats is not None
        assert stats.range_presence_rate("car", 0, 100) > 0.0
        results = _synthetic_results(
            400, {"car": {frame: 1 for frame in range(304, 400, 5)}}
        )
        sketch = RangeSketch.from_results(results, 400, range_size=16)

        sharder = VideoSharder()
        without = sharder.shard(400, 4, stats=stats, object_class="car")
        assert [shard.pruned for shard in without.shards] == [False] * 4
        with_sketch = sharder.shard(
            400, 4, stats=stats, object_class="car", sketch=sketch
        )
        assert [shard.pruned for shard in with_sketch.shards] == [
            True, True, True, False,
        ]

    def test_sketch_rescues_shards_stats_would_wrongly_prune(self, tiny_engine):
        # The held-out day never saw a 'boat', so stats-based pruning kills
        # every shard — silently dropping the test day's actual boats.  The
        # sketch is built from the test day itself and keeps the occupied
        # shard alive (regression for the proportional approximation).
        stats = tiny_engine.catalog.get("tiny")
        assert stats.range_presence_rate("boat", 0, 400) == 0.0
        sharder = VideoSharder()
        stats_only = sharder.shard(400, 4, stats=stats, object_class="boat")
        assert all(shard.pruned for shard in stats_only.shards)

        results = _synthetic_results(
            400, {"boat": {frame: 1 for frame in range(320, 340)}}
        )
        sketch = RangeSketch.from_results(results, 400, range_size=16)
        rescued = sharder.shard(
            400, 4, stats=stats, object_class="boat", sketch=sketch
        )
        assert [shard.pruned for shard in rescued.shards] == [
            True, True, True, False,
        ]

    def test_min_count_pruning_uses_max_count_proof(self):
        # Two cars at once only ever happen in the final shard.
        results = _synthetic_results(
            400,
            {"car": {**{frame: 1 for frame in range(0, 400, 7)}, 399: 2}},
        )
        sketch = RangeSketch.from_results(results, 400, range_size=16)
        plan = VideoSharder().shard(400, 4, min_counts={"car": 2}, sketch=sketch)
        assert [shard.pruned for shard in plan.shards] == [
            True, True, True, False,
        ]

    def test_window_rates_are_upper_bounds(self):
        rng = np.random.default_rng(5)
        frames = {int(f): 1 for f in rng.choice(400, size=60, replace=False)}
        results = _synthetic_results(400, {"car": frames})
        sketch = RangeSketch.from_results(results, 400, range_size=16)
        for start, end in [(0, 400), (3, 57), (100, 101), (250, 399)]:
            true_rate = sum(
                1 for f in range(start, end) if frames.get(f)
            ) / (end - start)
            assert sketch.range_presence_rate("car", start, end) >= true_rate
        # Aligned windows are exact, so whole-video mass is conserved.
        assert sketch.range_presence_rate("car", 0, 400) == len(frames) / 400


# -- query identity: serving from the index never changes results ------------------


class TestQueryIdentity:
    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize(
        "kind, force_plan",
        [
            ("aggregate_aqp", "control_variates"),
            ("aggregate_aqp", "naive_aqp"),
            ("aggregate_exact", None),
            ("scrubbing", "importance"),
            ("scrubbing", "exhaustive"),
            ("selection", None),
            ("exact", None),
        ],
    )
    def test_bit_identical_to_index_less_path(
        self,
        index_root,
        tiny_video,
        tiny_labeled_set,
        detector,
        engine_config,
        kind,
        force_plan,
        parallelism,
    ):
        root, _ = index_root
        hints = QueryHints(force_plan=force_plan) if force_plan else None
        reference = run(
            make_tiny_engine(
                tiny_video, tiny_labeled_set, detector, engine_config
            ),
            QUERIES[kind],
            parallelism=parallelism,
            hints=hints,
        )
        indexed = run(
            make_tiny_engine(
                tiny_video, tiny_labeled_set, detector, engine_config,
                index_dir=root,
            ),
            QUERIES[kind],
            parallelism=parallelism,
            hints=hints,
        )
        results_identical(indexed, reference)
        ledger = indexed.execution_ledger
        assert ledger.detector_calls == 0
        assert ledger.index_hits + ledger.index_skips > 0
        assert reference.execution_ledger.detector_calls > 0
        assert reference.execution_ledger.index_hits == 0

    def test_index_makes_exact_plans_free_so_aqp_answers_exactly(
        self, index_root, tiny_video, tiny_labeled_set, detector, engine_config
    ):
        # With detector cost repriced to zero the optimizer picks the exact
        # scan even for an ERROR WITHIN query: the approximate answer is
        # replaced by the ground truth, at zero detector calls.
        root, _ = index_root
        engine = make_tiny_engine(
            tiny_video, tiny_labeled_set, detector, engine_config, index_dir=root
        )
        exact = run(engine, QUERIES["aggregate_exact"])
        approx = run(engine, QUERIES["aggregate_aqp"])
        assert approx.method == "exact"
        assert approx.value == exact.value


# -- sketch-proof skipping ---------------------------------------------------------


@pytest.fixture(scope="module")
def sparse_setup(tmp_path_factory, detector, engine_config):
    """A sparse video (most sketch ranges provably car-free) with an index."""
    spec = make_video_spec(
        name="sparse", num_frames=256, seed=21, car_rate=0.002, bus_rate=0.001
    )
    video = SyntheticVideo.generate(spec)
    root = tmp_path_factory.mktemp("sparse-index")
    engine = make_engine(detector, engine_config, index_dir=root)
    engine.register_video("sparse", test_video=video)
    engine.build_index(
        "sparse", range_size=8, segment_frames=64, include_statistics=False
    )
    return video, root


class TestSketchSkipping:
    def test_absent_class_is_all_skips(
        self, index_root, tiny_video, tiny_labeled_set, detector, engine_config
    ):
        # 'person' never appears in the indexed video, so the sketch proves
        # count 0 everywhere: no decode, no detector, exact zero.
        root, _ = index_root
        engine = make_tiny_engine(
            tiny_video, tiny_labeled_set, detector, engine_config, index_dir=root
        )
        result = engine.query("SELECT FCOUNT(*) FROM tiny WHERE class = 'person'")
        assert result.value == 0.0
        ledger = result.execution_ledger
        assert ledger.detector_calls == 0
        assert ledger.index_hits == 0
        assert ledger.index_skips == tiny_video.num_frames

    def test_sparse_video_count_skips_most_frames(
        self, sparse_setup, detector, engine_config
    ):
        video, root = sparse_setup
        engine = make_engine(detector, engine_config, index_dir=root)
        engine.register_video("sparse", test_video=video)
        result = engine.query("SELECT FCOUNT(*) FROM sparse WHERE class = 'car'")
        expected = sum(
            detector.detect(video, frame).count("car")
            for frame in range(video.num_frames)
        ) / video.num_frames
        assert result.value == expected
        ledger = result.execution_ledger
        assert ledger.detector_calls == 0
        assert ledger.index_skips > 0
        assert ledger.index_hits + ledger.index_skips == video.num_frames

    def test_min_count_probe_skips_unreachable_frames(
        self, sparse_setup, detector, engine_config
    ):
        video, root = sparse_setup
        engine = make_engine(detector, engine_config, index_dir=root)
        engine.register_video("sparse", test_video=video)
        result = engine.query(
            "SELECT timestamp FROM sparse GROUP BY timestamp "
            "HAVING COUNT(class = 'car') >= 3 LIMIT 2 GAP 10"
        )
        ledger = result.execution_ledger
        assert ledger.detector_calls == 0
        assert ledger.index_skips > 0


# -- warm start and the use_index hint ---------------------------------------------


class TestWarmStart:
    def test_fresh_process_answers_hot_queries_without_detector(
        self, index_root, tiny_video, detector, engine_config
    ):
        root, _ = index_root
        cache = SharedDetectionCache(capacity_bytes=64 << 20)
        engine = BlazeIt(
            detector=detector, config=engine_config,
            shared_cache=cache, index_dir=root,
        )
        engine.register_video("tiny", test_video=tiny_video)
        # The persisted statistics entry is registered at construction,
        # without re-running the detector over the labeled days.
        assert engine.catalog.get("tiny") is not None

        report = engine.warm_start()
        assert report["enabled"] is True
        assert report["videos"] == ["tiny"]
        assert report["frames_loaded"] == tiny_video.num_frames
        assert len(cache) == tiny_video.num_frames

        # Even with the index view bypassed, the warmed shared cache serves
        # the whole scan: zero detector calls in a fresh process.
        result = engine.query(
            QUERIES["aggregate_exact"], hints=QueryHints(use_index=False)
        )
        ledger = result.execution_ledger
        assert ledger.detector_calls == 0
        assert ledger.index_hits == 0 and ledger.index_skips == 0
        assert ledger.shared_cache_hits > 0

    def test_warm_start_without_store_reports_disabled(
        self, detector, engine_config
    ):
        engine = make_engine(detector, engine_config)
        assert engine.warm_start() == {
            "enabled": False,
            "videos": [],
            "frames_loaded": 0,
            "catalog_entries": 0,
        }


class TestUseIndexHint:
    def test_use_index_false_detaches_the_index(
        self, index_root, tiny_video, tiny_labeled_set, detector, engine_config
    ):
        root, _ = index_root
        engine = make_tiny_engine(
            tiny_video, tiny_labeled_set, detector, engine_config, index_dir=root
        )
        detached = run(
            engine, QUERIES["aggregate_exact"], hints=QueryHints(use_index=False)
        )
        assert detached.execution_ledger.index_hits == 0
        assert detached.execution_ledger.index_skips == 0
        assert detached.execution_ledger.detector_calls > 0

        served = run(engine, QUERIES["aggregate_exact"])
        assert served.value == detached.value
        assert served.execution_ledger.detector_calls == 0

    def test_use_index_must_be_bool(self):
        with pytest.raises(ConfigurationError):
            QueryHints(use_index=1)

    def test_describe_mentions_use_index(self):
        assert "use_index=False" in QueryHints(use_index=False).describe()
        assert "use_index" not in QueryHints().describe()

    def test_explain_tightens_detector_estimate_to_zero(
        self, index_root, tiny_video, tiny_labeled_set, detector, engine_config
    ):
        root, _ = index_root
        engine = make_tiny_engine(
            tiny_video, tiny_labeled_set, detector, engine_config, index_dir=root
        )
        served = engine.session().explain(QUERIES["aggregate_exact"])
        assert served.estimated_detector_calls == 0
        detached = engine.session().explain(
            QUERIES["aggregate_exact"], hints=QueryHints(use_index=False)
        )
        assert detached.estimated_detector_calls > 0


# -- status surfaces ---------------------------------------------------------------


class TestStatusSurfaces:
    def test_index_status_reports_store_and_attached_generation(
        self, index_root, tiny_video, tiny_labeled_set, detector, engine_config
    ):
        root, _ = index_root
        engine = make_tiny_engine(
            tiny_video, tiny_labeled_set, detector, engine_config, index_dir=root
        )
        result = run(engine, QUERIES["aggregate_exact"])
        status = engine.index_status()
        assert status["enabled"] is True
        row = status["videos"][0]
        assert row["video"] == "tiny"
        assert row["generation"] == 1
        assert status["attached"] == {"tiny": {"generation": 1}}
        # What the view served is an execution-ledger count, not view state.
        ledger = result.execution_ledger
        assert ledger.index_hits + ledger.index_skips > 0

    def test_index_status_disabled_without_store(self, detector, engine_config):
        engine = make_engine(detector, engine_config)
        assert engine.index_status() == {"enabled": False}

    def test_service_warm_starts_at_boot_and_exposes_index_status(
        self, index_root, tiny_video, detector, engine_config
    ):
        root, _ = index_root
        engine = make_engine(detector, engine_config, index_dir=root)
        engine.register_video("tiny", test_video=tiny_video)
        manager = ServiceManager(engine, ServiceConfig(slots=2))
        try:
            status = manager.status()
            assert status["index"]["enabled"] is True
            assert status["index"]["warm_start"]["frames_loaded"] == (
                tiny_video.num_frames
            )
            assert status["index"]["videos"][0]["video"] == "tiny"
        finally:
            manager.shutdown()

    def test_service_warm_start_can_be_disabled(
        self, index_root, tiny_video, detector, engine_config
    ):
        root, _ = index_root
        engine = make_engine(detector, engine_config, index_dir=root)
        engine.register_video("tiny", test_video=tiny_video)
        manager = ServiceManager(
            engine, ServiceConfig(slots=2, warm_start_index=False)
        )
        try:
            status = manager.status()
            assert status["index"]["enabled"] is True
            assert "warm_start" not in status["index"]
        finally:
            manager.shutdown()
