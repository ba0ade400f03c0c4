"""Specialized neural network substrate.

A specialized NN is a small model trained to mimic the full object detector on
a *simplified* task (Section 3): binary presence, per-frame counts, or
per-class counts.  The paper uses a "tiny ResNet" in PyTorch running at
~10,000 fps; this reproduction uses small numpy models (softmax regression and
a one-hidden-layer MLP) trained with SGD + momentum on the cheap per-frame
features of the synthetic video.  What matters for the optimizations is that
the models are orders of magnitude cheaper than detection and correlated but
imperfect with respect to the detector's counts — both properties hold.
"""

from repro.specialization.models import SoftmaxRegression, TinyMLP
from repro.specialization.trainer import TrainingConfig, train_classifier
from repro.specialization.features import FeatureScaler
from repro.specialization.count_model import CountSpecializedModel
from repro.specialization.binary_model import BinaryPresenceModel
from repro.specialization.multiclass import MultiClassCountModel
from repro.specialization.calibration import (
    batch_means_error_bound,
    calibrate_no_false_negative_threshold,
)

__all__ = [
    "SoftmaxRegression",
    "TinyMLP",
    "TrainingConfig",
    "train_classifier",
    "FeatureScaler",
    "CountSpecializedModel",
    "BinaryPresenceModel",
    "MultiClassCountModel",
    "calibrate_no_false_negative_threshold",
    "batch_means_error_bound",
]
