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
from repro.optimizer.operators.common import finalize_aggregate
from repro.specialization.calibration import (
    bootstrap_error_estimate,
    error_within_tolerance,
)
from repro.specialization.count_model import CountSpecializedModel


class SpecializedInference(PhysicalOperator):
    """Train a count-specialized NN and run it over every unseen frame.

    The query-rewriting stage of Algorithm 1: training on the labeled set,
    the bootstrap accuracy gate on the held-out day, and the full-video
    inference pass that replaces the detector entirely when the gate passes.
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

    def rewrite_within_tolerance(
        self,
        context: ExecutionContext,
        ledger: ExecutionLedger,
        model: CountSpecializedModel,
    ) -> bool:
        """Algorithm 1's accuracy gate: bootstrap the held-out rewrite error."""
        assert self.spec.error_tolerance is not None  # the gate implies a bound
        labeled = context.require_labeled_set()
        threshold_ledger = ledger if context.config.include_training_time else None
        predictions = model.predict_counts(labeled.heldout_features, threshold_ledger)
        truths = labeled.heldout_counts(self.spec.object_class)
        errors = bootstrap_error_estimate(predictions, truths, seed=context.config.seed)
        return error_within_tolerance(
            errors, self.spec.error_tolerance, self.spec.confidence
        )

    def stream_rewrite(
        self,
        context: ExecutionContext,
        control: ExecutionControl,
        ledger: ExecutionLedger,
        model: CountSpecializedModel,
    ) -> Generator[ExecutionEvent, None, AggregateResult]:
        """Rewrite the query: evaluate the NN on every unseen frame."""
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
            half_width=0.0,
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
        )
