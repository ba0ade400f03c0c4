"""Tests for the simulated object detectors."""

import numpy as np
import pytest

from repro.core.engine import BlazeIt
from repro.detection.base import ObjectDetector
from repro.detection.columnar import DetectionBatch
from repro.detection.simulated import DetectorNoiseModel, SimulatedDetector
from repro.service.__main__ import PacedSimulatedDetector
from repro.service.protocol import result_fingerprint

from oracle import reference_detect


class TestSimulatedDetector:
    def test_detection_is_deterministic(self, tiny_video, detector):
        a = detector.detect(tiny_video, 25)
        b = detector.detect(tiny_video, 25)
        assert a.count() == b.count()
        assert [d.object_class for d in a.detections] == [
            d.object_class for d in b.detections
        ]

    def test_different_detector_seeds_can_differ(self, tiny_video):
        counts_a = []
        counts_b = []
        det_a = SimulatedDetector.mask_rcnn(seed=1)
        det_b = SimulatedDetector.mask_rcnn(seed=2)
        for frame in range(0, tiny_video.num_frames, 10):
            counts_a.append(det_a.detect(tiny_video, frame).count())
            counts_b.append(det_b.detect(tiny_video, frame).count())
        # Identical noise streams for different seeds would be a bug; the
        # totals may coincide but per-frame sequences should not all match.
        assert counts_a != counts_b or sum(counts_a) == 0

    def test_counts_track_ground_truth(self, tiny_video, detector):
        """Detected counts should correlate strongly with ground truth."""
        truth = tiny_video.class_counts("car").astype(float)
        detected = np.array(
            [
                detector.detect(tiny_video, frame).count("car")
                for frame in range(tiny_video.num_frames)
            ],
            dtype=float,
        )
        if truth.std() == 0:
            pytest.skip("tiny video has constant car count")
        correlation = np.corrcoef(truth, detected)[0, 1]
        assert correlation > 0.8

    def test_boxes_within_frame(self, tiny_video, detector):
        for frame in range(0, tiny_video.num_frames, 37):
            result = detector.detect(tiny_video, frame)
            for det in result.detections:
                assert 0.0 <= det.box.x_min <= det.box.x_max <= tiny_video.spec.width
                assert 0.0 <= det.box.y_min <= det.box.y_max <= tiny_video.spec.height

    def test_confidences_in_range(self, tiny_video, detector):
        for frame in range(0, tiny_video.num_frames, 41):
            for det in detector.detect(tiny_video, frame).detections:
                assert 0.0 < det.confidence < 1.0

    def test_confidence_threshold_filters(self, tiny_video):
        permissive = SimulatedDetector.mask_rcnn(confidence_threshold=0.0)
        strict = SimulatedDetector.mask_rcnn(confidence_threshold=0.95)
        permissive_total = sum(
            permissive.detect(tiny_video, f).count() for f in range(0, 200, 5)
        )
        strict_total = sum(
            strict.detect(tiny_video, f).count() for f in range(0, 200, 5)
        )
        assert strict_total <= permissive_total

    def test_supported_classes_restriction(self, tiny_video):
        detector = SimulatedDetector(
            name="cars_only",
            cost=SimulatedDetector.mask_rcnn().cost,
            supported={"car"},
            noise=DetectorNoiseModel(false_positive_rate=0.0),
        )
        for frame in range(0, tiny_video.num_frames, 23):
            for det in detector.detect(tiny_video, frame).detections:
                assert det.object_class == "car"

    def test_yolo_is_cheaper_and_sloppier_than_mask_rcnn(self, tiny_video):
        mask = SimulatedDetector.mask_rcnn(confidence_threshold=0.0)
        yolo = SimulatedDetector.yolov2(confidence_threshold=0.0)
        assert yolo.cost.seconds_per_call < mask.cost.seconds_per_call
        assert yolo.noise.max_miss_probability > mask.noise.max_miss_probability

    def test_detect_many(self, tiny_video, detector):
        results = detector.detect_many(tiny_video, [2, 0, 2])
        assert [r.frame_index for r in results] == [2, 0, 2]
        assert results == [detector.detect(tiny_video, f) for f in (2, 0, 2)]

    def test_detection_result_helpers(self, tiny_video, detector):
        result = detector.detect(tiny_video, 0)
        assert result.count() == len(result.detections)
        cars = [d for d in result.detections if d.object_class == "car"]
        assert result.count("car") == len(cars)


class _PerFrameDetector(ObjectDetector):
    """A custom detector that works one frame at a time."""

    def __init__(self, reference: SimulatedDetector) -> None:
        self.name = reference.name
        self.reference = reference

    @property
    def cost(self):
        return self.reference.cost

    def detect_columns(self, video, frame_indices):
        return DetectionBatch.from_detections(
            [reference_detect(self.reference, video, int(f)) for f in frame_indices]
        )


class TestDetectorInterface:
    def test_one_abstract_detection_method(self):
        assert ObjectDetector.__abstractmethods__ == {"cost", "detect_columns"}

    def test_per_frame_detector_answers_like_the_kernel(self, tiny_video, detector):
        """The one hook is all a custom detector implements: per-frame
        results returned as ``DetectionBatch.from_detections`` run a query to
        the same answer and the same charge as the simulated kernel."""
        outcomes = []
        for candidate in (detector, _PerFrameDetector(detector)):
            engine = BlazeIt(detector=candidate)
            engine.register_video("v", test_video=tiny_video)
            with engine.session() as session:
                result = session.prepare("SELECT * FROM v WHERE class = 'car'").execute(
                    rng=np.random.default_rng(0)
                )
            outcomes.append((result_fingerprint(result), result.execution_ledger.detector_calls))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == tiny_video.num_frames

    def test_paced_detector_is_mask_rcnn_with_latency(self, tiny_video):
        """The service's paced detector shares ``mask_rcnn()``'s identity
        (name, seed, threshold: the cache and index key) and its output."""
        paced, base = PacedSimulatedDetector(0.0), SimulatedDetector.mask_rcnn()
        identity = ("name", "seed", "confidence_threshold", "cost")
        assert [getattr(paced, a) for a in identity] == [getattr(base, a) for a in identity]
        frames = list(range(0, tiny_video.num_frames, 7))
        got = paced.detect_columns(tiny_video, frames).to_arrays()
        want = base.detect_columns(tiny_video, frames).to_arrays()
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[name], want[name]) for name in want)
