"""Object detection substrate.

The paper's ground truth is a full object detector (Mask R-CNN or FGFA)
running at ~3 fps.  This package provides the same interface backed by a
*simulated* detector: it perturbs the synthetic ground truth with a
configurable noise model (missed small objects, confidence scores,
localisation jitter) and charges a per-frame cost to a runtime ledger.
Everything downstream treats the detector output as ground truth, exactly as
the paper does (Section 10.1).
"""

from repro.detection.base import Detection, DetectionResult, ObjectDetector
from repro.detection.simulated import DetectorNoiseModel, SimulatedDetector
from repro.detection.metrics import average_precision, mean_average_precision

__all__ = [
    "Detection",
    "DetectionResult",
    "ObjectDetector",
    "DetectorNoiseModel",
    "SimulatedDetector",
    "average_precision",
    "mean_average_precision",
]
