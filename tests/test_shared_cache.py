"""Tests for the process-wide shared cross-query detection cache."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.detection.base import Detection, DetectionResult
from repro.errors import ConfigurationError
from repro.parallel.cache import (
    SharedDetectionCache,
    estimate_result_bytes,
    get_process_cache,
    reset_process_cache,
    result_from_json,
    result_to_json,
)
from repro.specialization.trainer import TrainingConfig
from repro.video.geometry import BoundingBox
from repro.video.synthetic import SyntheticVideo

from conftest import make_video_spec
from oracle import run_engine_on_oracles


def make_result(frame_index: int, detections: int = 2) -> DetectionResult:
    return DetectionResult(
        frame_index=frame_index,
        timestamp=frame_index / 30.0,
        detections=[
            Detection(
                frame_index=frame_index,
                timestamp=frame_index / 30.0,
                object_class="car",
                box=BoundingBox(10.0 * k, 5.0, 10.0 * k + 40.0, 60.0),
                confidence=0.9,
                features=np.arange(5, dtype=np.float64) + k,
                color=(200.0, 10.0, 10.0),
                color_name="red",
            )
            for k in range(detections)
        ],
    )


class TestSharedDetectionCache:
    def test_get_put_roundtrip_and_namespacing(self):
        cache = SharedDetectionCache(capacity_bytes=1 << 20)
        cache.put("video-a", 3, make_result(3))
        assert cache.get("video-a", 3) is not None
        assert cache.get("video-b", 3) is None
        assert cache.get("video-a", 4) is None
        assert cache.stats.hits == 1 and cache.stats.misses == 2

    def test_get_many_put_many(self):
        cache = SharedDetectionCache(capacity_bytes=1 << 20)
        cache.put_many("v", {i: make_result(i) for i in range(5)})
        hits = cache.get_many("v", [0, 2, 4, 9])
        assert sorted(hits) == [0, 2, 4]
        assert hits[2].frame_index == 2

    def test_lru_eviction_respects_byte_budget(self):
        one = estimate_result_bytes(make_result(0))
        cache = SharedDetectionCache(capacity_bytes=3 * one)
        for frame in range(5):
            cache.put("v", frame, make_result(frame))
        assert len(cache) == 3
        assert cache.stats.evictions == 2
        assert cache.stats.current_bytes <= cache.capacity_bytes
        # Oldest entries went first.
        assert cache.get("v", 0) is None and cache.get("v", 1) is None
        assert cache.get("v", 4) is not None

    def test_get_refreshes_recency(self):
        one = estimate_result_bytes(make_result(0))
        cache = SharedDetectionCache(capacity_bytes=2 * one)
        cache.put("v", 0, make_result(0))
        cache.put("v", 1, make_result(1))
        cache.get("v", 0)  # 0 becomes most recent
        cache.put("v", 2, make_result(2))  # evicts 1, not 0
        assert cache.get("v", 0) is not None
        assert cache.get("v", 1) is None

    def test_resize_shrinks_immediately(self):
        one = estimate_result_bytes(make_result(0))
        cache = SharedDetectionCache(capacity_bytes=4 * one)
        for frame in range(4):
            cache.put("v", frame, make_result(frame))
        cache.resize(2 * one)
        assert len(cache) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SharedDetectionCache(capacity_bytes=0)

    def test_json_roundtrip_preserves_detections(self):
        original = make_result(7)
        restored = result_from_json(result_to_json(original))
        assert restored.frame_index == original.frame_index
        assert restored.timestamp == original.timestamp
        assert len(restored.detections) == len(original.detections)
        for a, b in zip(original.detections, restored.detections, strict=True):
            assert a.object_class == b.object_class
            assert a.box == b.box
            assert a.confidence == b.confidence
            assert np.array_equal(a.features, b.features)
            assert a.color == b.color and a.color_name == b.color_name

    def test_save_load_roundtrip(self, tmp_path):
        cache = SharedDetectionCache(capacity_bytes=1 << 20)
        cache.put_many("v", {i: make_result(i) for i in range(4)})
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = SharedDetectionCache.load(path)
        assert len(loaded) == 4
        assert loaded.capacity_bytes == cache.capacity_bytes
        assert loaded.get("v", 2).count("car") == 2

    def test_npz_roundtrip_is_exact_and_sniffed(self, tmp_path):
        """The binary snapshot restores every field (track_id included) and
        ``load`` recognises the format from the file alone."""
        cache = SharedDetectionCache(capacity_bytes=1 << 20)
        cache.put_many("v|a", {i: make_result(i) for i in range(4)})
        cache.put_many("w|b", {i: make_result(i, detections=1) for i in range(2)})
        cache.get("v|a", 1)  # perturb LRU order; snapshots must preserve it
        path = tmp_path / "cache.npz"
        cache.save(path, format="npz")
        loaded = SharedDetectionCache.load(path)
        assert len(loaded) == len(cache)
        assert loaded.capacity_bytes == cache.capacity_bytes
        with cache._state as s:
            saved_entries = dict(s.entries)
        with loaded._state as s:
            restored_entries = dict(s.entries)
        assert list(restored_entries) == list(saved_entries)
        for key, entry in saved_entries.items():
            saved, restored = entry.result, restored_entries[key].result
            for a, b in zip(saved.detections, restored.detections, strict=True):
                assert a.object_class == b.object_class and a.box == b.box
                assert a.confidence == b.confidence
                assert np.array_equal(a.features, b.features)
                assert a.color == b.color and a.color_name == b.color_name
                assert a.track_id == b.track_id

    def test_npz_snapshot_is_smaller_on_feature_heavy_caches(self, tmp_path):
        cache = SharedDetectionCache(capacity_bytes=64 << 20)
        cache.put_many("v", {i: make_result(i, detections=6) for i in range(64)})
        json_path, npz_path = tmp_path / "c.json", tmp_path / "c.npz"
        cache.save(json_path)
        cache.save(npz_path, format="npz")
        assert npz_path.stat().st_size < json_path.stat().st_size

    def test_json_snapshot_preserves_track_id(self, tmp_path):
        cache = SharedDetectionCache(capacity_bytes=1 << 20)
        result = make_result(0)
        result.detections[0].track_id = 17
        cache.put("v", 0, result)
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = SharedDetectionCache.load(path)
        assert loaded.get("v", 0).detections[0].track_id == 17

    def test_save_rejects_unknown_format(self, tmp_path):
        cache = SharedDetectionCache(capacity_bytes=1 << 20)
        with pytest.raises(ConfigurationError):
            cache.save(tmp_path / "cache.bin", format="pickle")

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(ConfigurationError):
            SharedDetectionCache.load(path)
        zippy = tmp_path / "other.npz"
        zippy.write_bytes(b"PK\x03\x04 not an archive")
        with pytest.raises(ConfigurationError):
            SharedDetectionCache.load(zippy)

    def test_concurrent_access_is_safe_and_loses_nothing(self):
        cache = SharedDetectionCache(capacity_bytes=64 << 20)
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                for frame in range(200):
                    cache.put(f"v{worker_id}", frame, make_result(frame, detections=1))
                    assert cache.get(f"v{worker_id}", frame) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) == 8 * 200

    def test_process_cache_singleton(self):
        reset_process_cache()
        try:
            first = get_process_cache(1 << 20)
            again = get_process_cache()
            assert again is first
            grown = get_process_cache(4 << 20)
            assert grown is first and first.capacity_bytes == 4 << 20
            # Smaller requests never shrink a live serving cache.
            assert get_process_cache(1 << 10).capacity_bytes == 4 << 20
        finally:
            reset_process_cache()


@pytest.fixture()
def cached_engine():
    cache = SharedDetectionCache(capacity_bytes=64 << 20)
    engine = BlazeIt(
        config=BlazeItConfig(
            training=TrainingConfig(epochs=2, batch_size=32, min_examples=16),
            min_training_positives=20,
            seed=3,
        ),
        shared_cache=cache,
    )
    engine.register_video(
        "hot", test_video=SyntheticVideo.generate(make_video_spec(name="hot"))
    )
    return engine, cache


class TestEngineIntegration:
    QUERY = "SELECT FCOUNT(*) FROM hot WHERE class = 'car'"

    def test_warm_cache_skips_detector_calls_entirely(self, cached_engine):
        engine, cache = cached_engine
        cold = engine.session().prepare(self.QUERY).execute(
            rng=np.random.default_rng(1)
        )
        warm = engine.session().prepare(self.QUERY).execute(
            rng=np.random.default_rng(2)
        )
        assert cold.execution_ledger.detector_calls == 400
        assert warm.execution_ledger.detector_calls == 0
        assert warm.execution_ledger.shared_cache_hits == 400
        assert warm.value == cold.value
        assert warm.runtime_seconds < cold.runtime_seconds

    def test_warm_cache_serves_parallel_executions(self, cached_engine):
        engine, cache = cached_engine
        cold = engine.session().prepare(self.QUERY).execute(
            rng=np.random.default_rng(1), parallelism=4
        )
        warm = engine.session().prepare(self.QUERY).execute(
            rng=np.random.default_rng(2), parallelism=4
        )
        assert cold.execution_ledger.detector_calls == 400
        assert warm.execution_ledger.detector_calls == 0
        assert warm.value == cold.value

    def test_oracle_and_batched_accounting_agree_on_shared_hits(
        self, cached_engine, monkeypatch
    ):
        engine, cache = cached_engine
        engine.session().prepare(self.QUERY).execute(rng=np.random.default_rng(1))
        batched = engine.session().prepare(self.QUERY).execute(
            rng=np.random.default_rng(2)
        )
        run_engine_on_oracles(monkeypatch)
        scalar = engine.session().prepare(self.QUERY).execute(
            rng=np.random.default_rng(3)
        )
        assert scalar.execution_ledger.shared_cache_hits == 400
        assert (
            scalar.execution_ledger.shared_cache_hits
            == batched.execution_ledger.shared_cache_hits
        )
        assert (
            scalar.execution_ledger.detection_cache_hits
            == batched.execution_ledger.detection_cache_hits
        )
        assert scalar.value == batched.value

    def test_tracking_queries_never_write_cached_detections(
        self, cached_engine, tmp_path
    ):
        """Persisted "exact detector output" does not depend on which queries
        ran: a tracking query groups the cache's own ``Detection`` objects
        and must leave them as the detector made them."""
        engine, cache = cached_engine
        engine.session().prepare(self.QUERY).execute(rng=np.random.default_rng(1))
        cache.save(tmp_path / "counted.json")
        tracked = engine.session().prepare("SELECT * FROM hot").execute(
            rng=np.random.default_rng(2)
        )
        assert tracked.execution_ledger.shared_cache_hits == 400
        assert tracked.records, "the tracking query must have resolved something"
        cache.save(tmp_path / "tracked.json")
        assert (tmp_path / "tracked.json").read_bytes() == (
            tmp_path / "counted.json"
        ).read_bytes()
        context = engine.execution_context("hot")
        for frame in range(400):
            cached = cache.get(context.cache_key, frame)
            fresh = context.detector.detect(context.video, frame)
            assert result_to_json(cached) == result_to_json(fresh)
            assert all(d.track_id is None for d in cached.detections)

    def test_cache_disabled_by_default(self):
        engine = BlazeIt(
            config=BlazeItConfig(
                training=TrainingConfig(epochs=2, batch_size=32, min_examples=16),
                seed=3,
            )
        )
        assert engine.shared_cache() is None

    def test_config_budget_selects_process_cache(self):
        reset_process_cache()
        try:
            engine = BlazeIt(
                config=BlazeItConfig(
                    training=TrainingConfig(epochs=2, batch_size=32, min_examples=16),
                    shared_cache_bytes=1 << 20,
                    seed=3,
                )
            )
            assert engine.shared_cache() is get_process_cache()
        finally:
            reset_process_cache()
