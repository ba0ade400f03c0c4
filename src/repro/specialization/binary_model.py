"""Binary presence model (the NoScope-style specialized NN).

Used as a label-based filter in content-based selection (Section 8) and by the
NoScope-replication query class of Section 4: it predicts whether at least one
object of the target class is present in the frame.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.runtime import ChargeSink, RuntimeLedger, StandardCosts
from repro.specialization.features import FeatureScaler
from repro.specialization.models import SoftmaxRegression, TinyMLP
from repro.specialization.trainer import TrainingConfig, train_classifier


class BinaryPresenceModel:
    """Specialized NN predicting presence/absence of one object class."""

    def __init__(
        self,
        object_class: str,
        model_type: str = "softmax",
        hidden_size: int = 16,
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
        self._model: SoftmaxRegression | TinyMLP | None = None
        self.training_losses: list[float] = []

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._model is not None

    def fit(
        self,
        features: np.ndarray,
        present: np.ndarray,
        ledger: ChargeSink | None = None,
    ) -> "BinaryPresenceModel":
        """Train on per-frame features and boolean presence labels."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(present).astype(np.int64)
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"feature/label length mismatch: {features.shape[0]} vs {labels.shape[0]}"
            )
        scaled = self.scaler.fit_transform(features)
        if self.model_type == "softmax":
            self._model = SoftmaxRegression(
                n_features=scaled.shape[1], n_classes=2, seed=self.seed
            )
        else:
            self._model = TinyMLP(
                n_features=scaled.shape[1],
                n_classes=2,
                hidden_size=self.hidden_size,
                seed=self.seed,
            )
        self.training_losses = train_classifier(
            self._model, scaled, labels, self.training_config, ledger
        )
        return self

    def _require_trained(self) -> None:
        if self._model is None:
            raise RuntimeError("BinaryPresenceModel used before fit()")

    def predict_proba_present(
        self, features: np.ndarray, ledger: RuntimeLedger | None = None
    ) -> np.ndarray:
        """Probability that the class is present, per frame."""
        self._require_trained()
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if ledger is not None:
            ledger.charge(StandardCosts.SPECIALIZED_NN, features.shape[0])
        return self._model.predict_proba(self.scaler.transform(features))[:, 1]

