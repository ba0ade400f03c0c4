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

from repro.core.engine import BlazeIt
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
