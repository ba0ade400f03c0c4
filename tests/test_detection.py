"""Tests for the simulated object detectors."""

import numpy as np
import pytest

from repro.detection.simulated import DetectorNoiseModel, SimulatedDetector
from repro.metrics.runtime import RuntimeLedger


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

    def test_charges_ledger(self, tiny_video, detector):
        ledger = RuntimeLedger()
        detector.detect(tiny_video, 0, ledger)
        assert ledger.call_count(detector.cost.name) == 1
        assert ledger.total_seconds == pytest.approx(detector.cost.seconds_per_call)

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
        ledger = RuntimeLedger()
        results = detector.detect_many(tiny_video, [0, 1, 2], ledger)
        assert len(results) == 3
        assert ledger.call_count(detector.cost.name) == 3

    def test_detection_result_helpers(self, tiny_video, detector):
        result = detector.detect(tiny_video, 0)
        assert result.count() == len(result.detections)
        cars = [d for d in result.detections if d.object_class == "car"]
        assert result.count("car") == len(cars)
