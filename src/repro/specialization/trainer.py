"""Training loop for specialized models.

Matches the recipe of Section 9: cross-entropy loss, minibatch SGD with
momentum 0.9, batch size 16 (configurable), a small number of epochs (the
paper uses one epoch over 150,000 frames).  Training time is charged to the
runtime ledger at the ``specialized_nn_train`` rate so that the "BlazeIt"
versus "BlazeIt (no train)" comparison of Figure 4 can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InsufficientTrainingDataError
from repro.metrics.runtime import ChargeSink, StandardCosts


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for specialized-model training."""

    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 2
    weight_decay: float = 1e-4
    shuffle_seed: int = 0
    min_examples: int = 32

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


def train_classifier(
    model,
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainingConfig | None = None,
    ledger: ChargeSink | None = None,
) -> list[float]:
    """Train ``model`` in place and return the per-epoch mean loss.

    Parameters
    ----------
    model:
        Any object exposing ``sgd_step(features, labels, learning_rate,
        momentum, weight_decay)`` (see :mod:`repro.specialization.models`).
    features, labels:
        Training matrix and integer class labels.
    config:
        Training hyper-parameters; defaults match the paper's recipe.
    ledger:
        When given, training cost is charged at the ``specialized_nn_train``
        rate (one charge per example per epoch).
    """
    config = config or TrainingConfig()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise ValueError(f"expected 2-D features, got shape {features.shape}")
    if features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"feature/label length mismatch: {features.shape[0]} vs {labels.shape[0]}"
        )
    n_examples = features.shape[0]
    if n_examples < config.min_examples:
        raise InsufficientTrainingDataError(
            f"need at least {config.min_examples} training examples, got {n_examples}"
        )
    rng = np.random.default_rng(config.shuffle_seed)
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n_examples)
        losses = []
        for start in range(0, n_examples, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            loss = model.sgd_step(
                features[batch_idx],
                labels[batch_idx],
                learning_rate=config.learning_rate,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
            )
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
        if ledger is not None:
            ledger.charge(StandardCosts.SPECIALIZED_NN_TRAIN, n_examples)
    return epoch_losses
