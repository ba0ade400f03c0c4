"""Sampling operators: plain adaptive AQP and control-variate estimation.

One body, two names: a sampling run with a trained model uses its expected
counts as the control variate, and one without is traditional AQP.
"""

from __future__ import annotations

import functools
from collections.abc import Generator

from repro.aqp.control_variates import control_variate_stream
from repro.aqp.sampling import adaptive_sample_stream
from repro.core.context import ExecutionContext
from repro.core.events import EstimateUpdate, ExecutionControl, ExecutionEvent
from repro.core.results import AggregateResult
from repro.frameql.analyzer import AggregateQuerySpec
from repro.metrics.runtime import ExecutionLedger
from repro.optimizer.operators.base import PhysicalOperator
from repro.optimizer.operators.common import (
    budget_sample_cap,
    count_value_range,
    finalize_aggregate,
    width_scale,
)
from repro.specialization.count_model import CountSpecializedModel


class RandomSampler(PhysicalOperator):
    """Traditional AQP: uniform sampling with the CLT stopping rule.

    Samples frames without replacement from an epsilon-net minimum, calling
    the detector on each sampled frame, until the CLT bound certifies the
    query's error tolerance at its confidence — the paper's Section 6.1
    baseline and the fallback when specialization has too little training
    data.
    """

    name = "RandomSampler"

    def __init__(self, spec: AggregateQuerySpec) -> None:
        self.spec = spec

    def describe(self) -> str:
        return (
            f"{self.name}(class={self.spec.object_class}, "
            f"error={self.spec.error_tolerance})"
        )

    def stream(
        self,
        context: ExecutionContext,
        control: ExecutionControl,
        ledger: ExecutionLedger,
        model: CountSpecializedModel | None = None,
    ) -> Generator[ExecutionEvent, None, AggregateResult]:
        spec = self.spec
        assert spec.error_tolerance is not None  # sampling implies a tolerance
        object_class = spec.object_class
        assert object_class is not None  # enforced at plan construction
        num_frames = context.video.num_frames
        if model is None:
            rounds = functools.partial(
                adaptive_sample_stream, population_size=num_frames
            )
        else:
            rounds = functools.partial(
                control_variate_stream,
                auxiliary_values=model.expected_counts(
                    context.test_features(), ledger
                ),
            )
        value_range = count_value_range(spec, context)
        scale = width_scale(spec, num_frames)
        result = None
        for round_ in rounds(
            sample_fn=lambda idx: context.detect_counts_batch(
                idx, object_class, ledger
            ),
            error_tolerance=spec.error_tolerance,
            confidence=spec.confidence,
            value_range=value_range,
            rng=context.rng,
            max_samples=budget_sample_cap(control, ledger),
            should_stop=lambda taken, hw: control.should_stop(
                ledger, half_width=hw * scale
            ),
            # Shard-aware entry: the permutation is the detector workload;
            # parallel shard workers prefetch it while the rounds replay the
            # identical sequential estimator.
            announce=context.announce_access_plan,
        ):
            yield EstimateUpdate(
                estimate=finalize_aggregate(spec, round_.estimate, num_frames),
                half_width=round_.half_width * scale,
                samples_used=round_.samples_used,
                confidence=spec.confidence,
            )
            if round_.done:
                result = round_.result
        assert result is not None
        if model is None:
            description = (
                f"adaptive sampling (epsilon-net start, CLT stop), "
                f"K={value_range:.0f}"
            )
        else:
            description = (
                "control variates: specialized NN as the auxiliary variable, "
                f"correlation={result.correlation:.2f}"
            )
        return AggregateResult(
            kind="aggregate",
            method="naive_aqp" if model is None else "control_variates",
            ledger=ledger,
            detection_calls=ledger.call_count(context.detector.cost.name),
            plan_description=description,
            value=finalize_aggregate(spec, result.estimate, num_frames),
            error_tolerance=spec.error_tolerance,
            confidence=spec.confidence,
            samples_used=result.samples_used,
            half_width=result.half_width,
            correlation=None if model is None else result.correlation,
        )


class ControlVariateSampler(RandomSampler):
    """Variance-reduced sampling with the specialized NN as control variate.

    :class:`RandomSampler`'s body streamed with a trained ``model``: the NN's
    expected counts over every unseen frame are the cheap auxiliary variable;
    the detector is sampled adaptively until the variance-reduced CLT bound
    meets the query's tolerance (Section 6.3).
    """

    name = "ControlVariateSampler"
