"""Tests for the detector recording and the labeled set."""

import pickle

import numpy as np
import pytest

from repro.api.hints import QueryHints
from repro.core.engine import BlazeIt
from repro.core.labeled_set import LabeledSet
from repro.core.recorded import RecordedDetections
from repro.detection.columnar import DetectionBatch
from repro.detection.simulated import SimulatedDetector
from repro.errors import ConfigurationError
from repro.service.protocol import result_fingerprint
from repro.video.synthetic import FEATURE_DIM, SyntheticVideo

from conftest import make_video_spec


class TestRecordedDetections:
    def test_num_frames(self, tiny_recorded, tiny_video):
        assert tiny_recorded.num_frames == tiny_video.num_frames

    def test_counts_match_results(self, tiny_recorded):
        counts = tiny_recorded.counts("car")
        for frame in (0, 10, 100):
            assert counts[frame] == tiny_recorded.result(frame).count("car")

    def test_result_free_without_ledger(self, tiny_recorded):
        # Reading the recording without a ledger is the harness's ground-truth
        # access and must not affect any measurement.
        tiny_recorded.result(0)

    def test_presence_is_counts_positive(self, tiny_recorded):
        np.testing.assert_array_equal(
            tiny_recorded.presence("car"), tiny_recorded.counts("car") > 0
        )

    def test_satisfies_min_counts(self, tiny_recorded):
        counts = tiny_recorded.counts("car")
        frame = int(np.argmax(counts))
        assert tiny_recorded.satisfies_min_counts(frame, {"car": int(counts[frame])})
        assert not tiny_recorded.satisfies_min_counts(
            frame, {"car": int(counts[frame]) + 1}
        )

    def test_frames_satisfying(self, tiny_recorded):
        frames = tiny_recorded.frames_satisfying({"car": 1})
        np.testing.assert_array_equal(frames, np.nonzero(tiny_recorded.counts("car") >= 1)[0])

    def test_mean_count(self, tiny_recorded):
        assert tiny_recorded.mean_count("car") == pytest.approx(
            float(tiny_recorded.counts("car").mean())
        )

    def test_length_mismatch_rejected(self, tiny_video, detector):
        with pytest.raises(ValueError):
            RecordedDetections(tiny_video, detector, DetectionBatch.empty())

    def test_counts_cached(self, tiny_recorded):
        a = tiny_recorded.counts("car")
        b = tiny_recorded.counts("car")
        assert a is b


class TestRecordingIsTheDetector:
    """A recording replays the detector's one batch under the detector's
    name and cost, and never leaves the driver."""

    def test_takes_the_recorded_detectors_identity(self, tiny_recorded, detector):
        assert tiny_recorded.name == detector.name
        assert tiny_recorded.cost == detector.cost
        assert tiny_recorded.gil_bound == detector.gil_bound

    def test_replays_exactly_what_the_detector_returns(
        self, tiny_recorded, tiny_video, detector
    ):
        frames = [5, 0, 399, 5, 120]
        replayed = tiny_recorded.detect_many(tiny_video, frames)
        live = detector.detect_many(tiny_video, frames)
        for got, want in zip(replayed, live, strict=True):
            assert (got.frame_index, got.timestamp) == (want.frame_index, want.timestamp)
            assert list(got.detections) == list(want.detections)
            assert list(tiny_recorded.result(got.frame_index).detections) == list(
                want.detections
            )

    def test_build_keeps_the_one_batch_and_makes_no_per_frame_result(
        self, tiny_video, detector, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            DetectionBatch, "__iter__", lambda self: calls.append("iter") or iter(())
        )
        monkeypatch.setattr(
            DetectionBatch, "__getitem__", lambda self, index: calls.append("getitem")
        )
        recorded = RecordedDetections.build(tiny_video, detector)
        recorded.counts("car")
        recorded.satisfies_min_counts(3, {"car": 1})
        assert calls == []
        assert recorded.batch.num_frames == tiny_video.num_frames

    def test_refuses_to_pickle(self, tiny_recorded):
        with pytest.raises(TypeError, match="driver-only"):
            pickle.dumps(tiny_recorded)


class TestAttachRecorded:
    def test_accepts_the_registered_day_by_its_detector(self, tiny_video, tiny_recorded):
        engine = BlazeIt(detector=SimulatedDetector.mask_rcnn())
        engine.register_video("tiny", test_video=tiny_video)
        engine.attach_recorded("tiny", tiny_recorded)
        assert engine.execution_context("tiny").detector is tiny_recorded

    def test_rejects_a_recording_of_another_video(self, tiny_recorded, detector):
        engine = BlazeIt(detector=detector)
        other = SyntheticVideo.generate(make_video_spec(name="other", seed=99))
        engine.register_video("other", test_video=other)
        with pytest.raises(ConfigurationError, match="not of the test day"):
            engine.attach_recorded("other", tiny_recorded)
        assert engine.execution_context("other").detector is detector

    @pytest.mark.parametrize(
        "variant",
        [
            dict(seed=1),
            dict(confidence_threshold=0.9),
            dict(name="yolo"),
        ],
    )
    def test_rejects_a_recording_by_another_detector(
        self, tiny_video, tiny_recorded, detector, variant
    ):
        fields = dict(
            name=detector.name,
            cost=detector.cost,
            noise=detector.noise,
            confidence_threshold=detector.confidence_threshold,
            supported=detector._supported,
            seed=detector.seed,
        )
        engine = BlazeIt(detector=SimulatedDetector(**{**fields, **variant}))
        engine.register_video("tiny", test_video=tiny_video)
        with pytest.raises(ConfigurationError, match="detector"):
            engine.attach_recorded("tiny", tiny_recorded)


_AGGREGATE = "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%"

#: One query of each class, with the plan forced where a class has two.
DIFFERENTIAL_QUERIES = {
    "aggregate_rewrite": (_AGGREGATE, "specialized_rewrite"),
    "aggregate_cv": (_AGGREGATE, "control_variates"),
    "scrubbing": (
        "SELECT timestamp FROM tiny GROUP BY timestamp "
        "HAVING COUNT(class = 'car') >= 1 LIMIT 5 GAP 30",
        None,
    ),
    "selection": ("SELECT * FROM tiny WHERE class = 'car'", None),
    "exact": ("SELECT * FROM tiny", None),
}

EXECUTION_MODES = {
    "sequential": {},
    "threads": {"parallelism": 4, "backend": "threads"},
    "processes": {"parallelism": 4, "backend": "processes"},
}


@pytest.fixture(scope="module")
def live_and_recorded(tiny_video, tiny_labeled_set, detector, engine_config):
    """Two engines of one seed over one day: one detects live, one replays
    its recording."""
    engines = []
    for record in (False, True):
        engine = BlazeIt(detector=detector, config=engine_config)
        engine.register_video("tiny", test_video=tiny_video)
        engine.attach_labeled_set("tiny", tiny_labeled_set)
        if record:
            engine.record_test_day("tiny")
        engines.append(engine)
    return engines


class TestRecordedEqualsLive:
    @pytest.mark.parametrize("mode", sorted(EXECUTION_MODES))
    @pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_QUERIES))
    def test_same_result_and_explanation(self, live_and_recorded, kind, mode):
        text, force = DIFFERENTIAL_QUERIES[kind]
        observed = []
        for engine in live_and_recorded:
            with engine.session() as session:
                prepared = session.prepare(text, hints=QueryHints(force_plan=force))
                result = prepared.execute(
                    rng=np.random.default_rng(42), **EXECUTION_MODES[mode]
                )
                observed.append((result_fingerprint(result), prepared.explain().render()))
        live, recorded = observed
        assert recorded[0] == live[0]
        assert recorded[1] == live[1]


class TestLabeledSet:
    def test_build_runs_detector_over_both_days(self, tiny_labeled_set):
        assert (
            tiny_labeled_set.train_recorded.num_frames
            == tiny_labeled_set.train_video.num_frames
        )
        assert (
            tiny_labeled_set.heldout_recorded.num_frames
            == tiny_labeled_set.heldout_video.num_frames
        )

    def test_features_shape(self, tiny_labeled_set):
        assert tiny_labeled_set.train_features.shape == (
            tiny_labeled_set.train_video.num_frames,
            FEATURE_DIM,
        )
        assert tiny_labeled_set.heldout_features.shape == (
            tiny_labeled_set.heldout_video.num_frames,
            FEATURE_DIM,
        )

    def test_features_cached(self, tiny_labeled_set):
        assert tiny_labeled_set.train_features is tiny_labeled_set.train_features
        assert tiny_labeled_set.heldout_features is (
            tiny_labeled_set.heldout_video.all_features()
        )
        assert not tiny_labeled_set.train_features.flags.writeable

    def test_counts_and_presence_consistent(self, tiny_labeled_set):
        counts = tiny_labeled_set.train_counts("car")
        presence = tiny_labeled_set.train_presence("car")
        np.testing.assert_array_equal(presence, counts > 0)

    def test_training_positives(self, tiny_labeled_set):
        assert tiny_labeled_set.training_positives("car") == int(
            tiny_labeled_set.train_presence("car").sum()
        )

    def test_training_instances_conjunction(self, tiny_labeled_set):
        single = tiny_labeled_set.training_instances({"car": 1})
        joint = tiny_labeled_set.training_instances({"car": 1, "bus": 1})
        assert joint <= single

    def test_build_classmethod(self, tiny_train_video, tiny_heldout_video, detector):
        labeled = LabeledSet.build(
            tiny_train_video.slice(0, 50), tiny_heldout_video.slice(0, 50), detector
        )
        assert labeled.train_recorded.num_frames == 50
