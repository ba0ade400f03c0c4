"""Crash-safety of on-disk persistence: saves are atomic, never truncated.

A long-running query service periodically saves the shared detection cache
and the statistics catalog while queries are in flight.  These tests simulate
a process killed at the worst possible moments — mid-write of the payload and
mid-rename — and assert the previous snapshot on disk stays loadable.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.persist as persist
from repro.catalog.statistics import StatisticsCatalog
from repro.core.labeled_set import LabeledSet
from repro.detection.base import DetectionResult
from repro.detection.simulated import SimulatedDetector
from repro.errors import ConfigurationError
from repro.parallel.cache import SharedDetectionCache
from repro.persist import atomic_write_bytes, atomic_write_text
from repro.video.synthetic import SyntheticVideo

from conftest import make_video_spec


class _DiesMidWrite(Exception):
    """Stands in for SIGKILL arriving while the payload is being written."""


def _crash_during_write(monkeypatch):
    """Make the temp-file write die halfway through the payload."""
    real_fdopen = os.fdopen

    def exploding_fdopen(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)
        real_write = handle.write

        def write(text):
            real_write(text[: max(1, len(text) // 2)])
            raise _DiesMidWrite()

        handle.write = write
        return handle

    monkeypatch.setattr(persist.os, "fdopen", exploding_fdopen)


def _crash_during_replace(monkeypatch):
    """Make the final rename fail (payload fully written, swap never lands)."""

    def exploding_replace(src, dst):
        raise _DiesMidWrite()

    monkeypatch.setattr(persist.os, "replace", exploding_replace)


def _populated_cache() -> SharedDetectionCache:
    video = SyntheticVideo.generate(make_video_spec(num_frames=32))
    detector = SimulatedDetector.mask_rcnn()
    cache = SharedDetectionCache(capacity_bytes=64 << 20)
    for frame in range(8):
        cache.put("v|test", frame, detector.detect(video, frame))
    return cache


def _populated_catalog() -> StatisticsCatalog:
    train = SyntheticVideo.generate(make_video_spec(name="train", num_frames=64))
    heldout = SyntheticVideo.generate(
        make_video_spec(name="heldout", num_frames=64, seed=11)
    )
    labeled = LabeledSet.build(train, heldout, SimulatedDetector.mask_rcnn())
    catalog = StatisticsCatalog()
    catalog.register_from_labeled_set("v", 64, labeled, 1 / 3.0)
    return catalog


class TestAtomicWriteText:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "payload.json"
        atomic_write_text(target, '{"ok": true}')
        assert json.loads(target.read_text()) == {"ok": True}

    def test_overwrite_survives_crash_mid_write(self, tmp_path, monkeypatch):
        target = tmp_path / "payload.json"
        target.write_text('{"generation": 1}')
        _crash_during_write(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            atomic_write_text(target, '{"generation": 2}')
        assert json.loads(target.read_text()) == {"generation": 1}

    def test_no_temp_file_left_behind_on_crash(self, tmp_path, monkeypatch):
        target = tmp_path / "payload.json"
        _crash_during_write(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            atomic_write_text(target, "x" * 4096)
        assert list(tmp_path.iterdir()) == []


class TestAtomicWriteBytes:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "payload.npz"
        atomic_write_bytes(target, b"PK\x03\x04binary payload")
        assert target.read_bytes() == b"PK\x03\x04binary payload"

    def test_overwrite_survives_crash_mid_write(self, tmp_path, monkeypatch):
        target = tmp_path / "payload.npz"
        target.write_bytes(b"generation-1")
        _crash_during_write(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            atomic_write_bytes(target, b"generation-2" * 512)
        assert target.read_bytes() == b"generation-1"
        assert list(tmp_path.iterdir()) == [target]

    def test_binary_cache_snapshot_survives_crash(self, tmp_path, monkeypatch):
        cache = _populated_cache()
        path = tmp_path / "cache.npz"
        cache.save(path, format="npz")
        good = path.read_bytes()
        _crash_during_write(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            cache.save(path, format="npz")
        assert path.read_bytes() == good
        reloaded = SharedDetectionCache.load(path)
        assert len(reloaded) == len(cache)
        for frame in range(8):
            assert isinstance(reloaded.get("v|test", frame), DetectionResult)

    def test_crash_during_rename_keeps_old_snapshot(self, tmp_path, monkeypatch):
        target = tmp_path / "payload.json"
        target.write_text('{"generation": 1}')
        _crash_during_replace(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            atomic_write_text(target, '{"generation": 2}')
        assert json.loads(target.read_text()) == {"generation": 1}
        assert list(tmp_path.iterdir()) == [target]


class TestSharedCacheCrashSafety:
    def test_killed_save_never_truncates_previous_snapshot(
        self, tmp_path, monkeypatch
    ):
        cache = _populated_cache()
        path = tmp_path / "cache.json"
        cache.save(path)
        good = path.read_text()

        _crash_during_write(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            cache.save(path)
        # The snapshot on disk is byte-identical to the last good save and
        # still loads — a truncated write would fail json parsing here.
        assert path.read_text() == good
        reloaded = SharedDetectionCache.load(path)
        assert len(reloaded) == len(cache)
        for frame in range(8):
            hit = reloaded.get("v|test", frame)
            assert isinstance(hit, DetectionResult)

    def test_save_to_fresh_path_cleans_up_on_crash(self, tmp_path, monkeypatch):
        cache = _populated_cache()
        path = tmp_path / "cache.json"
        _crash_during_write(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            cache.save(path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(FileNotFoundError):
            SharedDetectionCache.load(path)


class TestCatalogCrashSafety:
    def test_killed_save_never_truncates_previous_snapshot(
        self, tmp_path, monkeypatch
    ):
        catalog = _populated_catalog()
        path = tmp_path / "catalog.json"
        catalog.save(path)
        good = path.read_text()

        _crash_during_write(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            catalog.save(path)
        assert path.read_text() == good
        reloaded = StatisticsCatalog.load(path)
        assert reloaded.names() == catalog.names()

    def test_crash_during_rename_keeps_loadable_catalog(
        self, tmp_path, monkeypatch
    ):
        catalog = _populated_catalog()
        path = tmp_path / "catalog.json"
        catalog.save(path)
        _crash_during_replace(monkeypatch)
        with pytest.raises(_DiesMidWrite):
            catalog.save(path)
        assert StatisticsCatalog.load(path).names() == catalog.names()

    def test_garbage_file_still_rejected_with_typed_error(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigurationError):
            StatisticsCatalog.load(path)


class TestBenchmarkReportsAreAtomic:
    """BENCH_*.json reports must go through the atomic writer.

    CI reads these files after a benchmark run; a run killed mid-write (job
    timeout, runner eviction) must leave either the previous report or the
    new one, never a truncated JSON.  This is a source-level guard: every
    benchmark that writes a report imports and calls ``atomic_write_text``,
    and none uses a bare ``Path.write_text`` for it.
    """

    BENCH_SCRIPTS = [
        "bench_index.py",
        "bench_parallel.py",
        "bench_service.py",
    ]

    def test_bench_reports_use_atomic_write(self):
        import ast
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        for script in self.BENCH_SCRIPTS:
            tree = ast.parse((bench_dir / script).read_text())
            calls = [
                ast.unparse(node.func)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
            ]
            assert "atomic_write_text" in calls, script
            bare_writes = [c for c in calls if c.endswith(".write_text")]
            assert bare_writes == [], (script, bare_writes)
