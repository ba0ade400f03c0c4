"""Tests for the shard driver protocol on both transports, and for what is
specific to the multiprocess one.

The contract is one protocol, two transports: a thread- or process-backed
parallel execution must be bit-for-bit the sequential one — values, records,
hit sets and ledger accounting — because workers only *speculate* while the
driver alone charges the ledger on consumption.  :class:`TestShardProtocol`
checks that contract once, parametrized over ``("threads", "processes")``:
the identity matrix, shard-boundary semantics, progress events, worker
reaping, the announce/take rules and prefetch accounting.  The rest of the
file covers the process transport alone: the export rules (recorded contexts
refuse to spawn and fall back to threads), worker crashes (SIGKILL mid-query
must degrade to inline computation, not hang or corrupt), the inline spill
of oversized chunks, and shared-memory segment hygiene.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.context import ContextSpec
from repro.core.events import Completed, ExecutionControl, ShardProgress
from repro.detection.columnar import decode_from_bytes, encode_to_bytes
from repro.detection.simulated import SimulatedDetector
from repro.errors import ConfigurationError, SpawnExportError
from repro.parallel import plan as parallel_plan
from repro.parallel.plan import BACKENDS
from repro.parallel.shards import VideoSharder
from repro.parallel.shm import SLOT_NAME_PREFIX, SlotRing
from repro.service.protocol import result_fingerprint
from repro.specialization.trainer import TrainingConfig
from repro.video.synthetic import SyntheticVideo

from conftest import make_video_spec
from test_parallel import QUERIES, fingerprint

_SHM_DIR = "/dev/shm"


def leaked_segments() -> list[str]:
    """Shared-memory segments created by this process and never unlinked."""
    if not os.path.isdir(_SHM_DIR):  # non-Linux: rely on the attach errors
        return []
    marker = f"{SLOT_NAME_PREFIX}_{os.getpid()}_"
    return [name for name in os.listdir(_SHM_DIR) if name.startswith(marker)]


def run(engine, query, parallelism, seed=42, backend=None):
    with engine.session() as session:
        return session.prepare(query).execute(
            rng=np.random.default_rng(seed),
            parallelism=parallelism,
            backend=backend,
        )


@pytest.fixture(scope="module")
def spawn_engine(tiny_video, tiny_labeled_set, detector, engine_config):
    """The tiny engine *without* a test-day recording.

    Recordings are driver-only state (``spawn_spec`` refuses to export
    them), so the process-backend matrix needs an engine whose contexts
    rebuild from the video spec alone.
    """
    engine = BlazeIt(detector=detector, config=engine_config)
    engine.register_video("tiny", test_video=tiny_video)
    engine.attach_labeled_set("tiny", tiny_labeled_set)
    return engine


@pytest.fixture(scope="module")
def sequential_fingerprints(spawn_engine):
    """One sequential reference execution per query class, shared by the
    whole identity matrix (same fixed seed as the parallel runs)."""
    return {
        kind: fingerprint(run(spawn_engine, query, parallelism=1))
        for kind, query in QUERIES.items()
    }


def make_driver(engine, backend, parallelism=4, batch_size=16):
    """A shard driver over ``backend`` for the engine's tiny video, with the
    context it prefetches for (unattached: the tests drive it directly)."""
    context = engine.execution_context("tiny")
    shard_plan = VideoSharder().shard(
        num_frames=context.video.num_frames, parallelism=parallelism
    )
    driver = parallel_plan._build_executor(
        shard_plan,
        context,
        ExecutionControl(batch_size=batch_size),
        backend,
    )
    assert driver.backend == backend
    return driver, context


def same_detections(result, context, frame_index):
    expected = context.detector.detect(context.video, frame_index)
    return result.frame_index == frame_index and [
        (d.object_class, d.box) for d in result.detections
    ] == [(d.object_class, d.box) for d in expected.detections]


@pytest.mark.parametrize("backend", BACKENDS)
class TestShardProtocol:
    """One driver protocol, checked identically on both transports."""

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_result_identity_matrix(
        self, spawn_engine, sequential_fingerprints, kind, parallelism, backend
    ):
        routed = run(
            spawn_engine, QUERIES[kind], parallelism=parallelism, backend=backend
        )
        assert fingerprint(routed) == sequential_fingerprints[kind]

    def test_shard_progress_only_in_parallel_streams(self, spawn_engine, backend):
        with spawn_engine.session() as session:
            parallel_events = list(
                session.stream(
                    QUERIES["exact"],
                    rng=np.random.default_rng(1),
                    parallelism=4,
                    backend=backend,
                )
            )
            sequential_events = list(
                session.stream(
                    QUERIES["exact"], rng=np.random.default_rng(1), parallelism=1
                )
            )
        progress = [e for e in parallel_events if isinstance(e, ShardProgress)]
        assert progress
        assert {e.shard for e in progress} <= {0, 1, 2, 3}
        assert not [e for e in sequential_events if isinstance(e, ShardProgress)]
        assert isinstance(parallel_events[-1], Completed)
        assert leaked_segments() == []

    def test_gap_enforced_across_shard_edges(self, spawn_engine, backend):
        # 8 shards over 400 frames puts a boundary every 50 frames; a GAP of
        # 50 therefore forces cross-shard conflicts to actually arise.
        query = (
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING COUNT(class = 'car') >= 1 LIMIT 6 GAP 50"
        )
        sequential = run(spawn_engine, query, parallelism=1)
        parallel = run(spawn_engine, query, parallelism=8, backend=backend)
        assert fingerprint(parallel) == fingerprint(sequential)
        frames = sorted(parallel.frames)
        assert all(b - a >= 50 for a, b in zip(frames, frames[1:], strict=False))

    def test_selection_windows_spanning_shards(self, spawn_engine, backend):
        # 16 shards over 400 frames: boundaries every 25 frames, while car
        # tracks last ~40 — matched windows must straddle shard edges (and
        # the process transport must reassemble them from columnar payloads).
        sequential = run(spawn_engine, QUERIES["selection"], parallelism=1)
        parallel = run(
            spawn_engine, QUERIES["selection"], parallelism=16, backend=backend
        )
        assert fingerprint(parallel) == fingerprint(sequential)
        boundaries = {i * 25 for i in range(1, 16)}
        matched = set(parallel.matched_frames)
        straddling = [
            b for b in boundaries if b in matched and (b - 1) in matched
        ]
        assert straddling, "fixed-seed video should have windows across shard edges"

    def test_single_frame_shards(self, backend):
        spec = make_video_spec(name="micro", num_frames=12, seed=11, car_rate=0.2)
        engine = BlazeIt(
            config=BlazeItConfig(
                training=TrainingConfig(epochs=2, batch_size=8, min_examples=4),
                min_training_positives=1,
                seed=5,
            )
        )
        engine.register_video("micro", test_video=SyntheticVideo.generate(spec))
        query = "SELECT FCOUNT(*) FROM micro WHERE class = 'car'"
        sequential = run(engine, query, parallelism=1)
        parallel = run(engine, query, parallelism=12, backend=backend)
        assert fingerprint(parallel) == fingerprint(sequential)
        assert parallel.execution_ledger.detector_calls == 12
        assert leaked_segments() == []

    def test_shutdown_joins_all_workers(self, spawn_engine, backend):
        """Closing a stream mid-scan must leave no live worker — thread or
        process — and no shared-memory segments."""
        with spawn_engine.session() as session:
            stream = session.stream(
                QUERIES["exact"],
                rng=np.random.default_rng(7),
                parallelism=4,
                backend=backend,
            )
            consumed = 0
            for _ in stream:
                consumed += 1
                if consumed >= 3:
                    break
            stream.close()
        assert [
            t.name for t in threading.enumerate() if t.name.startswith("repro-shard")
        ] == []
        assert multiprocessing.active_children() == []
        assert leaked_segments() == []

    def test_second_announce_is_ignored(self, spawn_engine, backend):
        driver, context = make_driver(spawn_engine, backend)
        try:
            driver.announce(np.arange(0, 100), monotone=True)
            driver.announce(np.arange(300, 400))
            assert driver.take(350) is None
            assert same_detections(driver.take(0), context, 0)
        finally:
            driver.shutdown()
        assert leaked_segments() == []

    def test_unannounced_and_passed_frames_are_computed_inline(
        self, spawn_engine, backend
    ):
        driver, context = make_driver(spawn_engine, backend)
        try:
            assert driver.take(5) is None, "nothing announced yet"
            assert driver.take_many([5, 6]) == {}
            driver.announce([10, 120, 30, 250])
            assert driver.take(15) is None, "never announced"
            assert same_detections(driver.take(30), context, 30)
            assert driver.take(10) is None, "passed: 30 follows it in shard 0"
            assert driver.take(30) is None, "already taken"
            taken = driver.take_many([120, 7, 250])
            assert list(taken) == [120, 250]
            assert all(same_detections(taken[f], context, f) for f in taken)
        finally:
            driver.shutdown()
        assert driver.take(250) is None, "shut down"

    def test_frames_prefetched_counts_what_workers_computed(
        self, spawn_engine, backend, monkeypatch
    ):
        """Regression: after an early stop, frames the workers computed but
        the plan never took (on the process transport: published slots the
        driver never drained) were missing from ``frames_prefetched``."""
        drivers = []
        build = parallel_plan._build_executor

        def capturing_build(*args, **kwargs):
            drivers.append(build(*args, **kwargs))
            return drivers[-1]

        monkeypatch.setattr(parallel_plan, "_build_executor", capturing_build)
        with spawn_engine.session() as session:
            result = session.stream(
                QUERIES["scrubbing"],
                rng=np.random.default_rng(9),
                parallelism=4,
                backend=backend,
                batch_size=8,
            ).drain()
        assert result.satisfied
        (driver,) = drivers
        spans = driver.worker_spans()
        assert [span["backend"] for span in spans] == [backend] * 4
        assert driver.frames_prefetched == sum(span["frames"] for span in spans)
        assert driver.frames_prefetched >= result.execution_ledger.detector_calls


    def test_index_covered_frames_are_never_announced(
        self, backend, tmp_path, monkeypatch
    ):
        """Regression: the index answers every frame it covers before the
        prefetcher is consulted, yet an explicit ``parallelism=2`` still
        announced them — thread workers ran the detector over the whole
        video for nothing, the process backend paid its spawn floor for
        nothing.  Frames an earlier tier serves are not announced."""
        computed, drivers, rings = [], [], []
        detect_batch = SimulatedDetector._detect_batch
        build = parallel_plan._build_executor
        ring_init = SlotRing.__init__

        def counting_detect_batch(self, video, frame_indices, ledger=None):
            computed.extend(frame_indices)
            return detect_batch(self, video, frame_indices, ledger)

        def capturing_build(*args, **kwargs):
            drivers.append(build(*args, **kwargs))
            return drivers[-1]

        def counting_ring_init(self, *args, **kwargs):
            rings.append(self)
            ring_init(self, *args, **kwargs)

        monkeypatch.setattr(SimulatedDetector, "_detect_batch", counting_detect_batch)
        monkeypatch.setattr(parallel_plan, "_build_executor", capturing_build)
        monkeypatch.setattr(SlotRing, "__init__", counting_ring_init)
        engine = BlazeIt(index_dir=tmp_path)
        engine.register_video(
            "covered", test_video=SyntheticVideo.generate(make_video_spec("covered", 600))
        )
        engine.build_index("covered")
        assert len(computed) == 600
        computed.clear()
        query = "SELECT * FROM covered"
        sharded = run(engine, query, parallelism=2, backend=backend)
        (driver,) = drivers
        assert driver.backend == backend
        assert driver.frames_prefetched == 0
        assert driver.worker_spans() == []
        assert rings == []
        assert computed == []
        ledger = sharded.execution_ledger
        assert ledger.index_hits + ledger.index_skips == 600
        sequential = run(engine, query, parallelism=1)
        assert result_fingerprint(sharded) == result_fingerprint(sequential)


def test_invalid_backend_rejected(spawn_engine):
    with spawn_engine.session() as session:
        prepared = session.prepare(QUERIES["exact"])
        with pytest.raises(ConfigurationError):
            prepared.execute(parallelism=4, backend="fibers")


class TestSpawnExport:
    def test_recorded_context_refuses_export(self, tiny_engine):
        context = tiny_engine.execution_context("tiny")
        with pytest.raises(SpawnExportError):
            context.spawn_spec()

    def test_recorded_engine_falls_back_to_threads(self, tiny_engine):
        """`backend="processes"` on a recorded engine silently degrades to
        the thread backend — still sharded, still identical."""
        sequential = run(tiny_engine, QUERIES["exact"], parallelism=1)
        with tiny_engine.session() as session:
            stream = session.stream(
                QUERIES["exact"],
                rng=np.random.default_rng(42),
                parallelism=4,
                backend="processes",
            )
            events = list(stream)
            result = stream.result
        assert [e for e in events if isinstance(e, ShardProgress)]
        assert fingerprint(result) == fingerprint(sequential)
        assert leaked_segments() == []

    def test_spec_rebuilds_video_exactly(self, spawn_engine):
        context = spawn_engine.execution_context("tiny")
        spec = context.spawn_spec()
        assert isinstance(spec, ContextSpec)
        rebuilt = spec.build_video()
        original = context.video
        assert rebuilt.num_frames == original.num_frames
        assert len(rebuilt.tracks) == len(original.tracks)
        frame = original.num_frames // 2
        a = spec.detector.detect(original, frame)
        b = spec.detector.detect(rebuilt, frame)
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections, strict=True):
            assert da.object_class == db.object_class and da.box == db.box


class PacedSpawnDetector(SimulatedDetector):
    """Simulated detector with real per-frame latency, picklable into
    spawn workers (module-level class, value-type state only)."""

    def __init__(self, seconds_per_frame: float = 0.002) -> None:
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

    def _detect_batch(self, video, frame_indices, ledger=None):
        import time

        time.sleep(self.seconds_per_frame * len(frame_indices))
        return super()._detect_batch(video, frame_indices, ledger)


class TestWorkerCrash:
    def test_sigkill_mid_query_degrades_to_inline(self):
        """SIGKILL a live worker: the driver must detect the dead process,
        compute the orphaned frames inline with identical charging, and
        leave no shared-memory segments behind."""
        engine = BlazeIt(
            detector=PacedSpawnDetector(),
            config=BlazeItConfig(
                training=TrainingConfig(epochs=2, batch_size=32, min_examples=16),
                min_training_positives=20,
                seed=3,
            ),
        )
        engine.register_video(
            "crashy",
            test_video=SyntheticVideo.generate(make_video_spec(name="crashy")),
        )
        sequential = run(engine, "SELECT * FROM crashy", parallelism=1)
        with engine.session() as session:
            stream = session.stream(
                "SELECT * FROM crashy",
                rng=np.random.default_rng(42),
                parallelism=4,
                backend="processes",
            )
            iterator = iter(stream)
            for event in iterator:
                if isinstance(event, ShardProgress):
                    break  # workers are up and publishing
            victims = multiprocessing.active_children()
            assert victims, "process workers should be alive mid-query"
            os.kill(victims[0].pid, signal.SIGKILL)
            result = stream.drain()
        assert fingerprint(result) == fingerprint(sequential)
        assert leaked_segments() == []

    def test_refused_spawn_cleans_up_and_propagates(self, spawn_engine, monkeypatch):
        """When ``Process.start()`` itself raises (the classic missing
        ``if __name__ == "__main__"`` guard), the error must reach the
        caller — not an ``AssertionError`` from joining a never-started
        process — and every shm segment must be unlinked."""
        import multiprocessing.context as mp_context

        def refuse(self):
            raise RuntimeError("bootstrapping phase")

        monkeypatch.setattr(mp_context.SpawnProcess, "start", refuse)
        with spawn_engine.session() as session:
            prepared = session.prepare(QUERIES["exact"])
            with pytest.raises(RuntimeError, match="bootstrapping"):
                prepared.execute(
                    rng=np.random.default_rng(3), parallelism=4, backend="processes"
                )
        assert leaked_segments() == []
        assert multiprocessing.active_children() == []


class TestShmTransport:
    def test_slot_ring_create_read_destroy(self):
        ring = SlotRing(shard_id=0, slot_count=2, slot_bytes=64)
        try:
            assert len(ring.names) == 2
            payload = b"columnar-bytes"
            ring.slots[0].buf[: len(payload)] = payload
            assert ring.read(0, len(payload)) == payload
        finally:
            ring.destroy()
        assert leaked_segments() == []
        ring.destroy()  # idempotent

    def test_oversized_chunk_spills_inline(self, monkeypatch):
        """A chunk whose columnar payload exceeds the 1 MiB slot travels
        inline through the header queue; the result is still sequential's."""
        engine = BlazeIt(
            config=BlazeItConfig(
                training=TrainingConfig(epochs=2, batch_size=32, min_examples=16),
                seed=3,
            )
        )
        engine.register_video(
            "dense",
            test_video=SyntheticVideo.generate(
                make_video_spec(name="dense", num_frames=1200, car_rate=0.5)
            ),
        )
        slot_reads = []
        read = SlotRing.read

        def counting_read(ring, slot_index, nbytes):
            slot_reads.append(nbytes)
            return read(ring, slot_index, nbytes)

        monkeypatch.setattr(SlotRing, "read", counting_read)
        query = "SELECT FCOUNT(*) FROM dense WHERE class = 'car'"

        def events_and_result(**parallel):
            with engine.session() as session:
                stream = session.stream(
                    query,
                    rng=np.random.default_rng(42),
                    batch_size=600,  # one ~1.4 MB chunk per shard
                    **parallel,
                )
                return list(stream), stream.result

        _, sequential = events_and_result(parallelism=1)
        events, spilled = events_and_result(parallelism=2, backend="processes")
        progress = [e for e in events if isinstance(e, ShardProgress)]
        assert {e.shard for e in progress} == {0, 1}, "both workers delivered"
        assert slot_reads == [], "every chunk should have outgrown its slot"
        assert fingerprint(spilled) == fingerprint(sequential)
        assert leaked_segments() == []

    def test_columnar_codec_roundtrip_through_bytes(self, spawn_engine):
        video = spawn_engine.store.get("tiny")
        detector = spawn_engine.detector_for("tiny")
        results = [detector.detect(video, i) for i in range(24)]
        back = decode_from_bytes(encode_to_bytes(results))
        assert len(back) == len(results)
        for a, b in zip(results, back, strict=True):
            assert a.frame_index == b.frame_index
            assert a.timestamp == b.timestamp
            for da, db in zip(a.detections, b.detections, strict=True):
                assert da.object_class == db.object_class
                assert da.box == db.box
                assert da.confidence == db.confidence
                assert (da.features is None) == (db.features is None)
                if da.features is not None:
                    assert np.array_equal(da.features, db.features)
                assert da.color == db.color
                assert da.color_name == db.color_name
                assert da.track_id == db.track_id
