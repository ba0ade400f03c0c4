"""Count-specialized model: predicts the per-frame count of one object class.

The paper extends specialization from binary detection to counting
(Section 6.2): the specialized NN performs multi-class classification where
class ``k`` means "``k`` objects of the target class are visible".  The number
of classes is "the highest count that is at least 1% of the video plus one".
The model's argmax prediction is used for query rewriting, its probability-
weighted expected count is a useful control-variate signal, and its
``P(count >= N)`` scores drive the scrubbing optimization.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InsufficientTrainingDataError
from repro.metrics.runtime import ChargeSink, RuntimeLedger, StandardCosts
from repro.specialization.features import FeatureScaler
from repro.specialization.models import SoftmaxRegression, TinyMLP
from repro.specialization.trainer import TrainingConfig, train_classifier


def select_num_classes(counts: np.ndarray, min_fraction: float = 0.01) -> int:
    """Number of count classes implied by the paper's 1% rule.

    The highest count value that occurs in at least ``min_fraction`` of the
    frames, plus one (so counts of 0..k map to classes 0..k).  Rarer, higher
    counts are clipped into the top class.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        raise InsufficientTrainingDataError("cannot size a count model from zero frames")
    histogram = np.bincount(counts)
    fractions = histogram / counts.size
    qualifying = np.nonzero(fractions >= min_fraction)[0]
    highest = int(qualifying.max()) if qualifying.size else 0
    # A classifier needs at least two classes (0 and 1).
    return max(highest + 1, 2)


class CountSpecializedModel:
    """Specialized NN that counts objects of one class per frame."""

    def __init__(
        self,
        object_class: str,
        model_type: str = "softmax",
        hidden_size: int = 32,
        training_config: TrainingConfig | None = None,
        seed: int = 0,
    ) -> None:
        if model_type not in ("softmax", "mlp"):
            raise ValueError(f"model_type must be 'softmax' or 'mlp', got {model_type!r}")
        self.object_class = object_class
        self.model_type = model_type
        self.hidden_size = hidden_size
        self.training_config = training_config or TrainingConfig()
        self.seed = seed
        self.scaler = FeatureScaler()
        self.num_classes: int | None = None
        self._model: SoftmaxRegression | TinyMLP | None = None
        self.training_losses: list[float] = []

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._model is not None

    # -- training -------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        counts: np.ndarray,
        ledger: ChargeSink | None = None,
    ) -> "CountSpecializedModel":
        """Train the model on per-frame features and detector counts."""
        features = np.asarray(features, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        if features.shape[0] != counts.shape[0]:
            raise ValueError(
                f"feature/count length mismatch: {features.shape[0]} vs {counts.shape[0]}"
            )
        self.num_classes = select_num_classes(counts)
        labels = np.clip(counts, 0, self.num_classes - 1)
        scaled = self.scaler.fit_transform(features)
        if self.model_type == "softmax":
            self._model = SoftmaxRegression(
                n_features=scaled.shape[1], n_classes=self.num_classes, seed=self.seed
            )
        else:
            self._model = TinyMLP(
                n_features=scaled.shape[1],
                n_classes=self.num_classes,
                hidden_size=self.hidden_size,
                seed=self.seed,
            )
        self.training_losses = train_classifier(
            self._model, scaled, labels, self.training_config, ledger
        )
        return self

    def _require_trained(self) -> None:
        if self._model is None or self.num_classes is None:
            raise RuntimeError("CountSpecializedModel used before fit()")

    def _charge(self, ledger: RuntimeLedger | None, n_frames: int) -> None:
        if ledger is not None:
            ledger.charge(StandardCosts.SPECIALIZED_NN, n_frames)

    # -- inference --------------------------------------------------------------

    def predict_proba(
        self, features: np.ndarray, ledger: RuntimeLedger | None = None
    ) -> np.ndarray:
        """Per-class probabilities (class index == object count)."""
        self._require_trained()
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        self._charge(ledger, features.shape[0])
        return self._model.predict_proba(self.scaler.transform(features))

    def predict_counts(
        self, features: np.ndarray, ledger: RuntimeLedger | None = None
    ) -> np.ndarray:
        """Most probable count per frame (the query-rewriting signal)."""
        self._require_trained()
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        self._charge(ledger, features.shape[0])
        return self._model.predict(self.scaler.transform(features)).astype(np.int64)

    def expected_counts(
        self, features: np.ndarray, ledger: RuntimeLedger | None = None
    ) -> np.ndarray:
        """Probability-weighted expected count per frame.

        A smoother signal than the argmax count; it is the control-variate
        auxiliary variable ``t`` used by the aggregation optimizer.
        """
        proba = self.predict_proba(features, ledger)
        class_values = np.arange(proba.shape[1], dtype=np.float64)
        return proba @ class_values

    def prob_at_least(
        self,
        features: np.ndarray,
        min_count: int,
        ledger: RuntimeLedger | None = None,
    ) -> np.ndarray:
        """``P(count >= min_count)`` per frame (the scrubbing signal)."""
        if min_count < 0:
            raise ValueError(f"min_count must be non-negative, got {min_count}")
        proba = self.predict_proba(features, ledger)
        if min_count == 0:
            return np.ones(proba.shape[0], dtype=np.float64)
        threshold_class = min(min_count, proba.shape[1] - 1)
        return proba[:, threshold_class:].sum(axis=1)

    def mean_count(
        self, features: np.ndarray, ledger: RuntimeLedger | None = None
    ) -> float:
        """Mean predicted count over a set of frames (FCOUNT via rewriting)."""
        return float(np.mean(self.predict_counts(features, ledger)))

