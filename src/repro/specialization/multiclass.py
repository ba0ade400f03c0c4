"""Multi-class count model: one counting head per object class.

For scrubbing queries over multiple classes (e.g. "at least one bus and at
least five cars"), the paper trains a single specialized NN that "would return
a separate confidence for 'car' and 'bus'" rather than a joint binary
classifier, for class-imbalance reasons (Section 7.1).  This reproduction
models the shared trunk / separate heads structure as one
:class:`~repro.specialization.count_model.CountSpecializedModel` per class
trained on the same features; the conjunction score is the sum of the
per-class ``P(count >= N)`` probabilities, as in the paper.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.metrics.runtime import RuntimeLedger
from repro.specialization.count_model import CountSpecializedModel
from repro.specialization.trainer import TrainingConfig


class MultiClassCountModel:
    """Per-class count heads over a shared feature representation."""

    def __init__(
        self,
        object_classes: list[str],
        model_type: str = "softmax",
        training_config: TrainingConfig | None = None,
        seed: int = 0,
    ) -> None:
        if not object_classes:
            raise ValueError("object_classes must not be empty")
        self.object_classes = list(object_classes)
        self.heads: dict[str, CountSpecializedModel] = {
            name: CountSpecializedModel(
                object_class=name,
                model_type=model_type,
                training_config=training_config,
                seed=seed + idx,
            )
            for idx, name in enumerate(self.object_classes)
        }

    @property
    def is_trained(self) -> bool:
        """Whether every head has been trained."""
        return all(head.is_trained for head in self.heads.values())

    def fit_heads(
        self, fit: Callable[[CountSpecializedModel], CountSpecializedModel]
    ) -> "MultiClassCountModel":
        """Replace each head, in class order, with ``fit(head)``: a fitted model
        of the same class and settings (e.g. :meth:`LabeledSet.fitted`)."""
        self.heads = {name: fit(head) for name, head in self.heads.items()}
        return self

    def head(self, object_class: str) -> CountSpecializedModel:
        """The counting head for one object class."""
        try:
            return self.heads[object_class]
        except KeyError as exc:
            raise KeyError(
                f"no head for class {object_class!r}; trained classes: "
                f"{', '.join(self.object_classes)}"
            ) from exc

    def score_conjunction(
        self,
        features: np.ndarray,
        min_counts: dict[str, int],
        ledger: RuntimeLedger | None = None,
    ) -> np.ndarray:
        """Scrubbing signal for a conjunction of per-class count thresholds.

        The paper uses "the sum of the probability of the frame having at
        least one bus and at least five cars"; we sum the per-head
        ``P(count >= N)`` values.  Only the requested classes contribute.
        """
        if not min_counts:
            raise ValueError("min_counts must not be empty")
        scores: np.ndarray | None = None
        for object_class, min_count in min_counts.items():
            head_scores = self.head(object_class).prob_at_least(
                features, min_count, ledger
            )
            scores = head_scores if scores is None else scores + head_scores
        assert scores is not None
        return scores

    def predict_counts(
        self, features: np.ndarray, ledger: RuntimeLedger | None = None
    ) -> dict[str, np.ndarray]:
        """Per-class count predictions for each frame."""
        return {
            name: head.predict_counts(features, ledger)
            for name, head in self.heads.items()
        }
