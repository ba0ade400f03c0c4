"""The end-to-end harness's patch points must exist and keep their shape.

``benchmarks/e2e/layers.py`` measures each layer from outside by wrapping
callables of ``src/repro`` by name — ``vars(cls)[name]`` on classes, positional
signatures in its counters.  Renaming or reshaping one of them breaks the next
benchmark run, long after the change merged; this test makes it break tier-1
instead.  It only reads the harness: install, one small sharded query per
transport (the parallel layer has the most patch points), restore.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.api.hints import QueryHints
from repro.aqp import control_variates, sampling
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.events import EstimateUpdate
from repro.index.view import IndexView
from repro.parallel.executor import DetectionPrefetcher
from repro.parallel.plan import BACKENDS
from repro.video.synthetic import SyntheticVideo

from conftest import make_video_spec

FRAMES = 300


@pytest.mark.parametrize("backend", BACKENDS)
def test_harness_installs_and_measures_a_sharded_query(backend, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from benchmarks.e2e import layers

    engine = BlazeIt()
    engine.register_video(
        "v", test_video=SyntheticVideo.generate(make_video_spec("v", FRAMES))
    )
    unwrapped = vars(DetectionPrefetcher)["take_many"]
    recorder = layers.Recorder()
    restore = layers.install(recorder)  # KeyError/AttributeError: a patch point moved
    try:
        with engine.session() as session:
            result = session.prepare("SELECT * FROM v").execute(
                rng=np.random.default_rng(0), parallelism=2, backend=backend
            )
    finally:
        restore()
    assert vars(DetectionPrefetcher)["take_many"] is unwrapped
    assert result.execution_ledger.detector_calls == FRAMES
    counts = {
        key.split("|", 1)[1]: value for key, value in recorder.dump()["counts"].items()
    }
    assert counts["parallel.executions"] == 1
    assert counts["parallel.frames_consumed"] == FRAMES
    assert counts["parallel.frames_prefetched"] == FRAMES
    assert ("parallel.shm_bytes" in counts) == (backend == "processes")
    spans = {span[2] for span in recorder.spans}
    assert {"parallel.setup", "parallel.merge", "parallel.take", "parallel.shutdown"} <= spans


@pytest.mark.parametrize("forced", ["naive_aqp", "control_variates"])
def test_each_sampling_round_is_one_unnested_aqp_span(
    forced, monkeypatch, fast_training_config
):
    """``aqp.rounds`` counts ``aqp.sample`` spans, so the two wrapped entry
    points must stay distinct functions that never hand to each other."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from benchmarks.e2e import layers

    assert sampling.adaptive_sample_stream is not control_variates.control_variate_stream
    engine = BlazeIt(
        config=BlazeItConfig(training=fast_training_config, min_training_positives=20)
    )
    engine.register_video(
        "v",
        test_video=SyntheticVideo.generate(make_video_spec("v", FRAMES)),
        train_video=SyntheticVideo.generate(make_video_spec("v-train", FRAMES, seed=8)),
        heldout_video=SyntheticVideo.generate(
            make_video_spec("v-heldout", FRAMES, seed=9)
        ),
    )
    recorder = layers.Recorder()
    restore = layers.install(recorder)
    try:
        with engine.session() as session:
            events = list(
                session.stream(
                    "SELECT FCOUNT(*) FROM v WHERE class = 'car' "
                    "ERROR WITHIN 0.1 AT CONFIDENCE 95%",
                    hints=QueryHints(force_plan=forced),
                    rng=np.random.default_rng(0),
                )
            )
    finally:
        restore()
    assert events[-1].result.method == forced
    rounds = sum(isinstance(event, EstimateUpdate) for event in events)
    assert rounds > 1
    spans = [span for span in recorder.spans if span[2] == "aqp.sample"]
    # The harness opens one span per resume of the wrapped generator: one per
    # round, plus the resume that ends it.  Chained entry points would double it.
    assert len(spans) == rounds + 1
    ids = {span[0] for span in spans}
    assert not any(span[1] in ids for span in spans)


def test_index_reads_are_seen_through_the_tallied_names(monkeypatch, tmp_path, detector):
    """The harness tallies the index read as ``IndexView.get`` and its decode
    as ``columnar.decode_detection_results``, by name: moving the read off
    either name would make ``index.get_s`` / ``detection.decode_s`` go blind,
    not better.  A covered count reads no frame at all: it is answered from
    the sketch's range totals, and the harness sees it as ``index.skips``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from benchmarks.e2e import layers

    video = SyntheticVideo.generate(make_video_spec("v", FRAMES))
    ingest = BlazeIt(detector=detector, index_dir=tmp_path)
    ingest.register_video("v", test_video=video)
    ingest.build_index("v", range_size=8, segment_frames=64)
    engine = BlazeIt(detector=detector, index_dir=tmp_path)
    engine.register_video("v", test_video=video)
    objects = sum(len(detector.detect(video, f).detections) for f in range(FRAMES))
    unwrapped = vars(IndexView)["get"]

    def measured(query):
        recorder = layers.Recorder()
        restore = layers.install(recorder)
        try:
            with engine.session() as session:
                result = session.prepare(query).execute(rng=np.random.default_rng(0))
        finally:
            restore()
        assert vars(IndexView)["get"] is unwrapped
        assert result.execution_ledger.detector_calls == 0
        dump = recorder.dump()
        return (
            {key.split("|", 1)[1]: value for key, value in dump["tallies"].items()},
            {key.split("|", 1)[1]: value for key, value in dump["counts"].items()},
            result.execution_ledger,
        )

    tallies, counts, _ = measured("SELECT * FROM v")
    calls, seconds, self_seconds = tallies["index.get"]
    assert calls >= 1 and seconds > 0
    # Nested: the decode's wall is the index read's child time, all of it.
    decode_calls, decode_seconds, _ = tallies["detection.decode"]
    assert decode_calls >= 1
    assert decode_seconds == pytest.approx(seconds - self_seconds)
    assert counts["detection.decoded_objects"] == objects

    tallies, _, ledger = measured("SELECT FCOUNT(*) FROM v WHERE class = 'car'")
    assert tallies.get("index.get", [0])[0] == 0
    assert tallies.get("detection.decode", [0])[0] == 0
    assert ledger.index_hits == 0 and ledger.index_skips == FRAMES


def test_frame_and_object_counters_see_the_index_and_live_paths(
    monkeypatch, tmp_path, detector
):
    """The harness counts ``detection.frames_detected`` as ``len()`` of what
    ``detect_many`` returns and ``detection.decoded_objects`` by iterating
    what ``decode_detection_results`` returns: both must stay sequences of
    per-frame results on the query path, or the counters read 0."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from benchmarks.e2e import layers

    video = SyntheticVideo.generate(make_video_spec("v", FRAMES))
    ingest = BlazeIt(detector=detector, index_dir=tmp_path)
    ingest.register_video("v", test_video=video)
    ingest.build_index("v", range_size=8, segment_frames=64)
    indexed = BlazeIt(detector=detector, index_dir=tmp_path)
    indexed.register_video("v", test_video=video)
    live = BlazeIt(detector=detector)
    live.register_video("v", test_video=video)

    recorder = layers.Recorder()
    restore = layers.install(recorder)
    try:
        results = {}
        for name, engine in (("indexed", indexed), ("live", live)):
            with recorder.op(name), engine.session() as session:
                results[name] = session.prepare("SELECT * FROM v").execute(
                    rng=np.random.default_rng(0)
                )
    finally:
        restore()
    dump = recorder.dump()
    assert results["indexed"].execution_ledger.detector_calls == 0
    assert dump["counts"]["indexed|detection.decoded_objects"] == len(
        results["indexed"].records
    )
    assert dump["tallies"]["indexed|index.get"][0] >= 1
    assert results["live"].execution_ledger.detector_calls == FRAMES
    assert dump["counts"]["live|detection.frames_detected"] == FRAMES
