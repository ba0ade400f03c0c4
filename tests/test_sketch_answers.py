"""Property tests for what the index sketch answers without decoding a frame.

Two uses of :class:`~repro.index.sketches.RangeSketch` skip work outright, so
each is tested the way a data-skipping proof should be: generated detections
and generated predicates against the per-frame ground truth
(``tests/oracle.py``), never against a hand-picked case.

* A count over every frame of an indexed video is read off the sketch's
  exact range totals; it must equal the per-frame scan bit for bit.
* Scrubbing drops candidates whose range ``max_count`` cannot reach a
  ``HAVING`` minimum; the hits must equal the unpruned walk's, and exactly
  the provably hopeless frames are dropped, each counted once.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
from contextlib import contextmanager

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import BlazeItConfig
from repro.core.context import ExecutionContext
from repro.core.events import ExecutionControl
from repro.core.recorded import RecordedDetections
from repro.detection.base import BoundingBox, Detection, DetectionResult
from repro.detection.simulated import SimulatedDetector
from repro.frameql.analyzer import analyze
from repro.frameql.parser import parse
from repro.index.builder import build_video_index
from repro.index.store import PersistentIndex, VideoIndex
from repro.index.view import IndexView
from repro.metrics.runtime import ExecutionLedger
from repro.optimizer.aggregates import AggregateQueryPlan
from repro.optimizer.operators import DetectorVerifier
from repro.scrubbing.importance import ScrubbingResult, scrub_ordered
from repro.udf.registry import default_udf_registry
from repro.video.synthetic import SyntheticVideo

from conftest import make_video_spec, run_plan
from oracle import detect_reference

CLASSES = ("car", "bus")
#: Never detected anywhere: the sketch has no column for it.
ABSENT = "person"
MAX_FRAMES = 200
#: One frame per range, a range that rarely divides the video, the default,
#: and one range larger than any generated video.
RANGE_SIZES = (1, 7, 64, 1000)

_VIDEO = SyntheticVideo.generate(make_video_spec("v", MAX_FRAMES))

#: A video is runs of frames with the same per-class counts, so empty
#: stretches, dense bursts and partial last ranges all come up.
runs_strategy = st.lists(
    st.tuples(
        st.tuples(st.sampled_from((0, 0, 1, 2, 3, 5)), st.sampled_from((0, 0, 1, 4))),
        st.integers(1, 40),
    ),
    min_size=1,
    max_size=8,
)


def per_frame_counts(runs) -> list[tuple[int, ...]]:
    counts = [frame for frame, length in runs for _ in range(length)]
    return counts[:MAX_FRAMES]


def detections_of(counts) -> list[DetectionResult]:
    results = []
    for frame, per_class in enumerate(counts):
        stamp = _VIDEO.timestamp_of(frame)
        results.append(
            DetectionResult(
                frame_index=frame,
                timestamp=stamp,
                detections=[
                    Detection(
                        frame_index=frame,
                        timestamp=stamp,
                        object_class=name,
                        box=BoundingBox(10.0 * k, 0.0, 10.0 * k + 8.0, 8.0),
                        confidence=0.9,
                    )
                    for name, count in zip(CLASSES, per_class, strict=True)
                    for k in range(count)
                ],
            )
        )
    return results


@contextmanager
def contexts(counts, range_size):
    """``(plain, served)``: the recorded detections alone, and the same with
    a committed index over every frame."""
    video = _VIDEO.slice(0, len(counts), name="v")
    detector = SimulatedDetector.mask_rcnn()
    plain = ExecutionContext(
        video=video,
        detector=detector,
        udf_registry=default_udf_registry(),
        config=BlazeItConfig(),
        recorded=RecordedDetections(video, detector, detections_of(counts)),
        cache_key="sketch-answers",
    )
    with tempfile.TemporaryDirectory() as root:
        store = PersistentIndex(root)
        build_video_index(store, "v", plain, range_size=range_size, segment_frames=64)
        view = IndexView(VideoIndex.open(store.video_dir("v", plain.cache_key)))
        try:
            yield plain, dataclasses.replace(plain, index_view=view)
        finally:
            view.close()


def hopeless_reference(counts, range_size, min_counts) -> np.ndarray:
    """Per frame, from the ground truth: some class's maximum over the
    frame's range is below its minimum."""
    matrix = np.zeros((len(counts), len(CLASSES) + 1), dtype=np.int64)
    matrix[:, : len(CLASSES)] = np.asarray(counts, dtype=np.int64)
    columns = {name: i for i, name in enumerate((*CLASSES, ABSENT))}
    hopeless = np.zeros(len(counts), dtype=bool)
    for start in range(0, len(counts), range_size):
        peak = matrix[start : start + range_size].max(axis=0)
        hopeless[start : start + range_size] = any(
            peak[columns[name]] < minimum for name, minimum in min_counts.items()
        )
    return hopeless


def drain(stream):
    """Run an operator generator to the end; return what it returns."""
    while True:
        try:
            next(stream)
        except StopIteration as stop:
            return stop.value


class TestSketchAnsweredCount:
    @settings(max_examples=100, deadline=None)
    @given(
        runs=runs_strategy,
        range_size=st.sampled_from(RANGE_SIZES),
        object_class=st.sampled_from((*CLASSES, ABSENT)),
        aggregate=st.sampled_from(("FCOUNT", "COUNT")),
    )
    # A partial last range that holds some of the class.
    @example(runs=[((1, 1), 10)], range_size=7, object_class="car", aggregate="FCOUNT")
    @example(
        runs=[((0, 0), 60), ((2, 4), 5)], range_size=64, object_class="bus", aggregate="COUNT"
    )
    def test_equals_the_per_frame_scan_bit_for_bit(
        self, runs, range_size, object_class, aggregate
    ):
        counts = per_frame_counts(runs)
        num_frames = len(counts)
        spec = analyze(parse(f"SELECT {aggregate}(*) FROM v WHERE class = '{object_class}'"))
        with contexts(counts, range_size) as (plain, served):
            result = run_plan(AggregateQueryPlan(spec), served)
            scanned = np.array(
                [
                    detect_reference(plain, frame, ExecutionLedger()).count(object_class)
                    for frame in range(num_frames)
                ],
                dtype=np.float64,
            )
        mean = float(scanned.mean())
        assert result.value == (mean * num_frames if aggregate == "COUNT" else mean)
        assert result.samples_used == num_frames
        ledger = result.execution_ledger
        assert (ledger.detector_calls, ledger.index_hits) == (0, 0)
        assert ledger.index_skips == num_frames

    def test_a_prefix_index_leaves_the_count_to_the_scan(self):
        """The totals answer only for the frames they cover: over a longer
        video the count is scanned, and frames past the index are charged."""
        counts = per_frame_counts([((1, 0), 30), ((0, 2), 30), ((3, 0), 20)])
        spec = analyze(parse("SELECT FCOUNT(*) FROM v WHERE class = 'car'"))
        with contexts(counts[:60], 7) as (_, prefix):
            video = _VIDEO.slice(0, len(counts), name="v")
            served = dataclasses.replace(
                prefix,
                video=video,
                recorded=RecordedDetections(video, prefix.detector, detections_of(counts)),
            )
            result = run_plan(AggregateQueryPlan(spec), served)
        assert result.value == (30 + 3 * 20) / 80
        ledger = result.execution_ledger
        assert ledger.detector_calls == 20
        assert ledger.index_hits + ledger.index_skips == 60


class TestMaxCountPruning:
    @settings(max_examples=150, deadline=None)
    @given(
        runs=runs_strategy,
        range_size=st.sampled_from(RANGE_SIZES),
        min_counts=st.dictionaries(
            st.sampled_from((*CLASSES, ABSENT)), st.integers(0, 5), min_size=1, max_size=3
        ),
        limit=st.integers(1, 20),
        gap=st.integers(0, 50),
        shuffle=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        batch_size=st.sampled_from((1, 4, 16)),
    )
    @example(
        runs=[((3, 0), 7), ((2, 0), 7), ((1, 0), 3)],
        range_size=7,
        min_counts={"car": 2},
        limit=20,
        gap=0,
        shuffle=None,
        batch_size=4,
    )
    def test_pruned_walk_returns_the_unpruned_hits(
        self, runs, range_size, min_counts, limit, gap, shuffle, batch_size
    ):
        counts = per_frame_counts(runs)
        num_frames = len(counts)
        order = list(range(num_frames))
        if shuffle is not None:
            random.Random(shuffle).shuffle(order)
        hopeless = hopeless_reference(counts, range_size, min_counts)
        columns = {name: i for i, name in enumerate(CLASSES)}

        def satisfies(frame: int) -> bool:
            return all(
                (counts[frame][columns[name]] if name in columns else 0) >= minimum
                for name, minimum in min_counts.items()
            )

        reference = scrub_ordered(order, satisfies, limit, gap)
        walks = {}
        with contexts(counts, range_size) as (plain, served):
            sketch = served.index_view.sketch
            assert np.array_equal(
                sketch.fails_min_counts(np.arange(num_frames), min_counts), hopeless
            )
            assert not sketch.fails_min_counts(np.array([-1, num_frames]), min_counts).any()
            for name, context in (("unpruned", plain), ("pruned", served)):
                ledger, result = ExecutionLedger(), ScrubbingResult()
                pruned = drain(
                    DetectorVerifier(min_counts, gap=gap).stream(
                        context,
                        ExecutionControl(batch_size=batch_size),
                        ledger,
                        np.array(order, dtype=np.int64),
                        limit,
                        result,
                    )
                )
                walks[name] = (result, ledger, pruned)

        for result, _, _ in walks.values():
            assert (result.frames, result.satisfied) == (
                reference.frames,
                reference.satisfied,
            )
        _, ledger, pruned = walks["pruned"]
        assert sorted(pruned.tolist()) == np.flatnonzero(hopeless).tolist()
        assert not any(hopeless[frame] for frame in ledger.seen_frames)
        assert ledger.detector_calls == 0
        assert ledger.index_hits + ledger.index_skips <= num_frames
        assert walks["unpruned"][2].size == 0
