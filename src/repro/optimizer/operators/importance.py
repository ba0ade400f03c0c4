"""Importance-ordered scan operator: specialized-NN frame ranking."""

from __future__ import annotations

import numpy as np

from repro.core.context import ExecutionContext
from repro.metrics.runtime import ExecutionLedger
from repro.optimizer.operators.base import PhysicalOperator
from repro.specialization.multiclass import MultiClassCountModel


class ImportanceOrderedScan(PhysicalOperator):
    """Rank frames by specialized-NN conjunction confidence, best first.

    The planning half of the scrubbing strategy (Section 7.1): a multi-head
    count model (one head per queried class, for class-imbalance reasons) is
    trained on the labeled set and scores every unseen frame with the sum of
    per-class ``P(count >= N)`` confidences.  ``indexed`` reproduces the
    "BlazeIt (indexed)" variant of Figure 6: the NN is assumed trained and
    evaluated ahead of time, so neither cost is charged to this query.
    """

    name = "ImportanceOrderedScan"

    def __init__(self, min_counts: dict[str, int], indexed: bool = False) -> None:
        self.min_counts = min_counts
        self.indexed = indexed

    def describe(self) -> str:
        mode = "pre-indexed" if self.indexed else "trained per query"
        return f"ImportanceOrderedScan(classes={sorted(self.min_counts)}, {mode})"

    def order(
        self, context: ExecutionContext, ledger: ExecutionLedger
    ) -> np.ndarray:
        """Frames ranked by specialized-NN conjunction confidence, best first."""
        labeled = context.require_labeled_set()
        training_ledger = (
            ledger
            if (context.config.include_training_time and not self.indexed)
            else None
        )
        model = MultiClassCountModel(
            object_classes=sorted(self.min_counts),
            model_type=context.config.specialized_model_type,
            training_config=context.config.training,
            seed=context.config.seed,
        ).fit_heads(lambda head: labeled.fitted(head, training_ledger))

        inference_ledger = None if self.indexed else ledger
        scores = model.score_conjunction(
            context.test_features(), self.min_counts, inference_ledger
        )
        return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
