"""Specialized-inference operator: train a count NN and rewrite the query."""

from __future__ import annotations

from collections.abc import Generator

from repro.core.context import ExecutionContext
from repro.core.events import (
    EstimateUpdate,
    ExecutionControl,
    ExecutionEvent,
    Progress,
)
from repro.core.results import AggregateResult
from repro.frameql.analyzer import AggregateQuerySpec
from repro.metrics.runtime import ExecutionLedger
from repro.optimizer.operators.base import PhysicalOperator
from repro.optimizer.operators.common import finalize_aggregate, width_scale
from repro.specialization.calibration import batch_means_error_bound
from repro.specialization.count_model import CountSpecializedModel


class SpecializedInference(PhysicalOperator):
    """Train a count-specialized NN and run it over every unseen frame.

    The query-rewriting stage of Algorithm 1: training on the labeled set,
    the batch-means error bound on the held-out day (the accuracy gate), and
    the full-video inference pass that replaces the detector entirely when
    the bound is within the query's tolerance.
    The trained model doubles as the auxiliary variable for
    :class:`~repro.optimizer.operators.sampling.ControlVariateSampler`.
    """

    name = "SpecializedInference"

    def __init__(self, spec: AggregateQuerySpec) -> None:
        self.spec = spec

    def describe(self) -> str:
        return f"SpecializedInference(class={self.spec.object_class})"

    def train(
        self, context: ExecutionContext, ledger: ExecutionLedger
    ) -> CountSpecializedModel:
        """Train the count-specialized NN on the labeled set's training day."""
        assert self.spec.object_class is not None  # enforced at plan construction
        labeled = context.require_labeled_set()
        model = CountSpecializedModel(
            object_class=self.spec.object_class,
            model_type=context.config.specialized_model_type,
            training_config=context.config.training,
            seed=context.config.seed,
        )
        training_ledger = ledger if context.config.include_training_time else None
        model.fit(
            labeled.train_features,
            labeled.train_counts(self.spec.object_class),
            training_ledger,
        )
        return model

    def heldout_error_bound(
        self,
        context: ExecutionContext,
        ledger: ExecutionLedger,
        model: CountSpecializedModel,
    ) -> float:
        """Algorithm 1's accuracy gate: the rewrite's held-out error bound.

        The per-frame error at the query's confidence, from the batch means
        of the held-out residuals (per-frame units, like ``half_width``).
        """
        labeled = context.require_labeled_set()
        threshold_ledger = ledger if context.config.include_training_time else None
        predictions = model.predict_counts(labeled.heldout_features, threshold_ledger)
        truths = labeled.heldout_counts(self.spec.object_class)
        return batch_means_error_bound(predictions, truths, self.spec.confidence)

    def stream_rewrite(
        self,
        context: ExecutionContext,
        control: ExecutionControl,
        ledger: ExecutionLedger,
        model: CountSpecializedModel,
        half_width: float,
    ) -> Generator[ExecutionEvent, None, AggregateResult]:
        """Rewrite the query: evaluate the NN on every unseen frame.

        ``half_width`` is :meth:`heldout_error_bound`: the answer carries the
        bound its gate measured, not the zero width of an exact scan.
        """
        spec = self.spec
        num_frames = context.video.num_frames
        features = context.test_features()
        yield Progress(
            phase="specialized_inference",
            frames_scanned=ledger.frames_decoded,
            detector_calls=ledger.detector_calls,
            total_frames=num_frames,
        )
        mean_count = model.mean_count(features, ledger)
        yield EstimateUpdate(
            estimate=finalize_aggregate(spec, mean_count, num_frames),
            half_width=half_width * width_scale(spec, num_frames),
            samples_used=num_frames,
            confidence=spec.confidence,
        )
        return AggregateResult(
            kind="aggregate",
            method="specialized_rewrite",
            ledger=ledger,
            detection_calls=ledger.call_count(context.detector.cost.name),
            plan_description=(
                "query rewriting: specialized NN evaluated on every unseen frame"
            ),
            value=finalize_aggregate(spec, mean_count, num_frames),
            error_tolerance=spec.error_tolerance,
            confidence=spec.confidence,
            samples_used=num_frames,
            half_width=half_width,
        )
