"""Detections as columns: the batch kernel, result views, cache ownership and
the persisted forms.

The simulated detector's batch kernel must equal the scalar reference
``oracle.reference_detect`` bit for bit (invariant I1): it relies on
``normal(0, s) == 0.0 + s * standard_normal()`` and on one
``standard_normal(9)`` drawing the same values as four scalar normals
followed by a size-5 normal.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import columnar
from repro.detection.base import DetectionResult
from repro.detection.columnar import DetectionBatch, DetectionRows
from repro.detection.simulated import SimulatedDetector
from repro.parallel.cache import SharedDetectionCache
from repro.rng import RekeyedPhilox
from repro.video.scenarios import generate_scenario

from oracle import reference_detect

DATA = Path(__file__).resolve().parent / "data"
FRAMES = 400
#: Two-class scenarios (false positives relabel to the other class) and
#: one-class ones (none can), each with objects in these first frames.
SCENARIOS = ("taipei", "amsterdam", "archie", "rialto")
_VIDEOS = {name: generate_scenario(name, "test", FRAMES) for name in SCENARIOS}


def detectors(threshold: str) -> list[SimulatedDetector]:
    """The three configurations at one of the thresholds {0, default, 0.9}."""
    factories = (SimulatedDetector.mask_rcnn, SimulatedDetector.fgfa, SimulatedDetector.yolov2)
    if threshold == "default":
        return [factory() for factory in factories]
    return [factory(confidence_threshold=float(threshold)) for factory in factories]


def exact(result: DetectionResult) -> tuple:
    """Every field of a result, floats by their exact repr."""
    return (
        result.frame_index,
        repr(result.timestamp),
        [
            (
                d.frame_index,
                repr(d.timestamp),
                d.object_class,
                repr(d.box.as_tuple()),
                repr(d.confidence),
                None if d.features is None else (d.features.dtype, d.features.tobytes()),
                repr(d.color),
                d.color_name,
                d.track_id,
            )
            for d in result.detections
        ],
    )


class TestKernelEqualsScalarReference:
    @pytest.mark.parametrize("threshold", ["0", "default", "0.9"])
    @settings(max_examples=25, deadline=None)
    @given(
        scenario=st.sampled_from(SCENARIOS),
        frames=st.one_of(
            st.lists(st.integers(0, FRAMES - 1), max_size=40),
            st.integers(0, FRAMES - 1).map(lambda frame: [frame]),
        ),
    )
    def test_batch_equals_detect_field_for_field(self, threshold, scenario, frames):
        """Unsorted, duplicated, empty and single-frame lists alike."""
        video = _VIDEOS[scenario]
        for detector in detectors(threshold):
            batched = detector.detect_many(video, frames)
            assert [exact(r) for r in batched] == [
                exact(reference_detect(detector, video, frame)) for frame in frames
            ]

    def test_every_frame_of_every_scenario_including_false_positives(self):
        false_positives = 0
        for video in _VIDEOS.values():
            detector = SimulatedDetector.yolov2(confidence_threshold=0.0)
            frames = list(range(FRAMES))
            for frame, result in zip(frames, detector.detect_many(video, frames), strict=True):
                assert exact(result) == exact(reference_detect(detector, video, frame))
                false_positives += sum(d.features is None for d in result.detections)
        assert false_positives > 0, "no false-positive draw was exercised"

    def test_out_of_range_frames_raise(self):
        detector = SimulatedDetector.mask_rcnn()
        for frames in ([3, FRAMES], [-1]):
            with pytest.raises(IndexError):
                detector.detect_many(_VIDEOS["taipei"], frames)

    def test_two_threads_on_one_detector_get_identical_batches(self, monkeypatch):
        """The per-video kernel small calls share is read-only; the streams
        must not be shared.  Each thread yields right after re-keying a
        frame's stream, and the two walk the frames in opposite orders, so a
        shared stream would hand one thread the other's draws."""
        video = _VIDEOS["taipei"]
        orders = [list(range(FRAMES)), list(range(FRAMES))[::-1]]
        chunks = [[order[i : i + 16] for i in range(0, FRAMES, 16)] for order in orders]
        reference = SimulatedDetector.yolov2(confidence_threshold=0.0)
        expected = [
            [reference.detect_columns(video, chunk).to_arrays() for chunk in slot]
            for slot in chunks
        ]
        rekey = RekeyedPhilox.rekey

        def rekey_then_yield(self, key_lo):
            generator = rekey(self, key_lo)
            time.sleep(0)
            return generator

        monkeypatch.setattr(RekeyedPhilox, "rekey", rekey_then_yield)
        detector = SimulatedDetector.yolov2(confidence_threshold=0.0)
        start = threading.Barrier(2)
        outputs: list[list[DetectionBatch]] = [[], []]

        def run(slot: int) -> None:
            start.wait()
            for chunk in chunks[slot]:
                rows = detector.detect_many(video, chunk)[0].detections
                assert isinstance(rows, DetectionRows)
                outputs[slot].append(rows.batch)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for slot in (0, 1):
            assert len(outputs[slot]) == len(expected[slot])
            for batch, arrays in zip(outputs[slot], expected[slot], strict=True):
                got = batch.to_arrays()
                assert got.keys() == arrays.keys()
                for name, values in arrays.items():
                    assert np.array_equal(got[name], values), name

    def test_large_and_small_calls_agree(self):
        """A call of many frames builds its own object table; small calls
        share the video's.  Both give the same detections."""
        detector = SimulatedDetector.yolov2(confidence_threshold=0.0)
        video = _VIDEOS["taipei"]
        whole = detector.detect_columns(video, list(range(FRAMES))).to_arrays()
        pieces = DetectionBatch.concat(
            [detector.detect_columns(video, list(range(i, i + 8))) for i in range(0, FRAMES, 8)]
        ).to_arrays()
        for name, values in whole.items():
            assert np.array_equal(pieces[name], values), name


class TestResultViews:
    def test_len_and_count_build_no_detection(self, monkeypatch):
        detector = SimulatedDetector.fgfa(confidence_threshold=0.0)
        results = detector.detect_many(_VIDEOS["taipei"], list(range(FRAMES)))

        def forbidden(*args, **kwargs):
            raise AssertionError("a Detection was built")

        monkeypatch.setattr(columnar, "Detection", forbidden)
        assert sum(len(r.detections) for r in results) > 0
        assert sum(r.count("car") for r in results) > 0
        assert all(r.count("zebra") == 0 for r in results)
        monkeypatch.undo()
        assert all(
            r.count("car") == sum(d.object_class == "car" for d in r.detections)
            for r in results
        )

    def test_objects_are_built_once_per_result(self):
        detector = SimulatedDetector.mask_rcnn(confidence_threshold=0.0)
        result = next(
            r for r in detector.detect_many(_VIDEOS["taipei"], list(range(FRAMES)))
            if r.detections
        )
        assert result.detections[0] is next(iter(result.detections))

    def test_any_mix_of_forms_encodes_like_objects(self):
        """A view, a hand-built list and an empty list encode alike."""
        detector = SimulatedDetector.yolov2(confidence_threshold=0.0)
        video = _VIDEOS["amsterdam"]
        views = detector.detect_many(video, [152, 173, 155])
        listed = DetectionResult(
            views[1].frame_index, views[1].timestamp, list(views[1].detections)
        )
        assert all(view.detections for view in views)
        assert any(d.features is None for view in views for d in view.detections)
        mixed = [views[0], listed, DetectionResult(7, 7 / 30.0, []), views[2]]
        by_objects = DetectionBatch.from_detections(mixed).to_arrays()
        by_columns = columnar.encode_detection_results(mixed)
        for name, values in by_objects.items():
            assert by_columns[name].dtype == values.dtype, name
            assert np.array_equal(by_columns[name], values), name
        decoded = columnar.decode_detection_results(by_columns)
        assert [exact(r) for r in decoded] == [exact(r) for r in mixed]
        assert decoded == mixed


class TestCacheOwnsItsRows:
    def test_retained_memory_stays_within_twice_capacity(self):
        """3000 frames of one detector batch into a cache sized for ~10
        frames: once the batch is gone, the cache holds only the last frames,
        and no copy of theirs views the batch.

        The cycle runs twice under ``tracemalloc`` and the second is
        measured, so allocator caches that the first one filled (numpy keeps
        freed small buffers) are in the baseline, not in the cache's bill.
        """
        video = generate_scenario("taipei", "test", 3000)
        detector = SimulatedDetector.mask_rcnn(confidence_threshold=0.0)
        probe = SharedDetectionCache(capacity_bytes=1 << 20)
        sample = detector.detect_many(video, list(range(100)))
        probe.put_many("v", {r.frame_index: r for r in sample})
        capacity = 10 * probe.stats.current_bytes // len(probe)
        del probe, sample

        def fill() -> SharedDetectionCache:
            cache = SharedDetectionCache(capacity_bytes=capacity)
            results = detector.detect_many(video, list(range(3000)))
            cache.put_many("v", {result.frame_index: result for result in results})
            del results
            gc.collect()
            return cache

        tracemalloc.start()
        try:
            fill()  # the warm-up cycle; its cache is dropped at once
            gc.collect()
            baseline = tracemalloc.get_traced_memory()[0]
            cache = fill()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert cache.stats.evictions > 2900
        assert cache.stats.current_bytes <= capacity
        assert retained <= 2 * capacity, (retained, capacity)

    def test_reads_are_fresh_views(self):
        detector = SimulatedDetector.mask_rcnn(confidence_threshold=0.0)
        result = detector.detect_many(_VIDEOS["taipei"], [5])[0]
        cache = SharedDetectionCache(capacity_bytes=1 << 20)
        cache.put("v", 5, result)
        first, second = cache.get("v", 5), cache.get("v", 5)
        assert first is not second and first == second == result
        assert first.detections.batch is not result.detections.batch


class TestPersistedForms:
    """Snapshots written by the code before detections became columns."""

    KEYS = {"taipei-test-400|mask_rcnn": SimulatedDetector.mask_rcnn(),
            "taipei-test-400|yolov2": SimulatedDetector.yolov2(confidence_threshold=0.0)}

    @pytest.mark.parametrize("name", ["shared_cache_v1.json", "shared_cache_v2.npz"])
    def test_snapshot_loads_to_a_fresh_detection(self, name):
        video = generate_scenario("taipei", "test", 400)
        cache = SharedDetectionCache.load(DATA / name)
        frames = sorted({*range(0, 400, 29), 22, 53})
        assert len(cache) == len(self.KEYS) * len(frames)
        false_positives = 0
        for key, detector in self.KEYS.items():
            for frame in frames:
                loaded = cache.get(key, frame)
                fresh = reference_detect(detector, video, frame)
                assert loaded == fresh
                assert exact(loaded) == exact(fresh)
                false_positives += sum(d.features is None for d in loaded.detections)
        assert false_positives > 0

    def test_json_snapshot_rewrites_byte_identically(self, tmp_path):
        cache = SharedDetectionCache.load(DATA / "shared_cache_v1.json")
        cache.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (
            DATA / "shared_cache_v1.json"
        ).read_bytes()

    def test_npz_snapshot_rewrites_identical_arrays(self, tmp_path):
        cache = SharedDetectionCache.load(DATA / "shared_cache_v2.npz")
        cache.save(tmp_path / "again.npz", format="npz")
        with np.load(DATA / "shared_cache_v2.npz") as before, np.load(
            tmp_path / "again.npz"
        ) as after:
            assert sorted(before.files) == sorted(after.files)
            for name in before.files:
                assert before[name].dtype == after[name].dtype, name
                assert np.array_equal(before[name], after[name]), name
