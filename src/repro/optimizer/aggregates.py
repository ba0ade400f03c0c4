"""Physical plan for aggregate queries (Algorithm 1 of the paper).

The plan implements the full decision procedure of Section 6 as a composition
of physical operators:

1. If the query has no error tolerance (or asks for ``COUNT(DISTINCT
   trackid)``), fall back to an exhaustive :class:`FullScan`.
2. If there is not enough training data for the queried class, run plain
   adaptive sampling (:class:`RandomSampler`, traditional AQP).
3. Otherwise :class:`SpecializedInference` trains a count-specialized NN on
   the labeled set and estimates its error on the held-out day with the
   bootstrap.  If the error satisfies the user's bound at the requested
   confidence, rewrite the query: run the specialized NN over every unseen
   frame and return its mean directly.
4. Otherwise use the specialized NN as a control variate
   (:class:`ControlVariateSampler`): its expected counts over all unseen
   frames are the cheap auxiliary variable, and the detector is sampled
   adaptively until the variance-reduced CLT bound is met.

The ``method`` constructor argument (an
:class:`~repro.core.config.AggregateMethod`) forces any one of these
strategies; it is what the cost-based optimizer's forced candidates — the ones
``QueryHints(force_plan=...)`` names — are built with.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Generator, Iterator
from typing import TYPE_CHECKING

from scipy import stats as scipy_stats

from repro.api.hints import QueryHints, require_hints
from repro.aqp.sampling import round_sizes
from repro.core.config import AggregateMethod
from repro.core.context import ExecutionContext
from repro.core.events import (
    Completed,
    EstimateUpdate,
    ExecutionControl,
    ExecutionEvent,
    Progress,
)
from repro.core.results import AggregateResult, OperatorNode
from repro.errors import PlanningError
from repro.frameql.analyzer import AggregateQuerySpec
from repro.metrics.runtime import ExecutionLedger
from repro.obs.trace import operator_scope
from repro.optimizer.base import CostEstimate, PhysicalPlan
from repro.optimizer.operators import (
    ControlVariateSampler,
    FullScan,
    RandomSampler,
    SpecializedInference,
    TrackAggregator,
)
from repro.optimizer.operators.common import finalize_aggregate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import VideoStatistics

#: Slack on the CLT sample-size estimate ``(z * sigma / epsilon)^2``: the
#: sampler stops on the *sample* standard deviation, which fluctuates around
#: the catalog's held-out sigma.
_CLT_SLACK = 2.0

#: Assumed detector/specialized-NN correlation for pricing the control-variate
#: candidate before any model has been trained (the paper reports 0.8+ on its
#: workloads).  Used only for ranking, never for bounding.
ASSUMED_CV_CORRELATION = 0.8


def sampling_calls_estimate(
    num_frames: int,
    count_std: float,
    error_tolerance: float,
    confidence: float,
    value_range: float,
) -> int:
    """Upper estimate of adaptive-sampling detector calls.

    Adds the CLT sample size for the catalog's held-out count deviation (with
    slack for sample-sigma fluctuation) to one growth round of overshoot, and
    never exceeds the population: sampling is without replacement.
    """
    initial, batch = round_sizes(value_range, error_tolerance, num_frames)
    if count_std <= 0.0:
        # Zero observed variance: the CLT bound fires at the first check.
        return initial
    z = float(scipy_stats.norm.ppf(1.0 - (1.0 - confidence) / 2.0))
    clt_samples = math.ceil((z * count_std / error_tolerance) ** 2 * _CLT_SLACK)
    return min(num_frames, max(initial, clt_samples) + batch)


class AggregateQueryPlan(PhysicalPlan):
    """Adaptive plan for ``FCOUNT`` / ``COUNT`` aggregate queries."""

    def __init__(
        self,
        spec: AggregateQuerySpec,
        hints: QueryHints | None = None,
        method: AggregateMethod | None = None,
    ) -> None:
        if spec.object_class is None and spec.aggregate != "count_distinct":
            raise PlanningError(
                "aggregate queries must constrain a single object class "
                "(WHERE class = '<name>')"
            )
        self.spec = spec
        self.hints = require_hints(hints) or QueryHints()
        #: Forced execution strategy; ``None`` (or ``AUTO``) runs Algorithm
        #: 1's accuracy gate.
        self.method = method
        self._scan = FullScan()
        self._tracks = TrackAggregator(iou_threshold=0.7, max_gap=1)
        self._specialized = SpecializedInference(spec)
        self._sampler = RandomSampler(spec)
        self._control_variates = ControlVariateSampler(spec)

    def describe(self) -> str:
        forced = f", method={self.method.value}" if self.method is not None else ""
        return (
            f"AggregateQueryPlan(aggregate={self.spec.aggregate}, "
            f"class={self.spec.object_class}, error={self.spec.error_tolerance}"
            f"{forced})"
        )

    # -- planning surface ----------------------------------------------------------

    def exact_only(self) -> bool:
        """Whether this plan can only run the exhaustive scan.

        The query tolerates no error (or counts distinct tracks), or the scan
        is forced.
        """
        return (
            self.spec.error_tolerance is None
            or self.spec.aggregate == "count_distinct"
            or self.method == AggregateMethod.EXACT
        )

    def operator_tree(
        self,
        num_frames: int | None = None,
        stats: VideoStatistics | None = None,
    ) -> OperatorNode:
        spec = self.spec
        scan_calls: int | None = None
        scan_seconds: float | None = None
        sampler_calls: int | None = None
        sampler_seconds: float | None = None
        cv_calls: int | None = None
        cv_seconds: float | None = None
        train_calls: int | None = None
        training_seconds: float | None = None
        inference_seconds: float | None = None
        if num_frames is not None and stats is not None:
            scan_calls = num_frames
            scan_seconds = stats.detector_seconds(num_frames)
            sampler_calls = self._sampling_estimate(
                num_frames, stats, control_variate=False
            )
            sampler_seconds = stats.detector_seconds(sampler_calls)
            cv_calls = self._sampling_estimate(num_frames, stats, control_variate=True)
            cv_seconds = stats.detector_seconds(cv_calls)
            train_calls = 0
            training_seconds = stats.specialized_training_seconds()
            inference_seconds = stats.specialized_inference_seconds(num_frames)

        if self.exact_only():
            children: tuple[OperatorNode, ...] = (
                OperatorNode(
                    "FullScan",
                    detail="detection on every frame",
                    estimated_detector_calls=scan_calls,
                    estimated_seconds=scan_seconds,
                ),
            )
            if spec.aggregate == "count_distinct":
                children += (OperatorNode("TrackAggregator", detail="IoU tracker"),)
            return OperatorNode(
                "AggregateQueryPlan",
                detail=f"aggregate={spec.aggregate}",
                children=children,
            )

        train_node = OperatorNode(
            "SpecializedInference",
            detail=f"train class={spec.object_class}",
            estimated_detector_calls=train_calls,
            estimated_seconds=training_seconds,
        )
        rewrite_node = OperatorNode(
            "QueryRewrite",
            detail="specialized NN on every unseen frame",
            estimated_detector_calls=train_calls,
            estimated_seconds=inference_seconds,
        )
        sampler_node = OperatorNode(
            "RandomSampler",
            detail="adaptive CLT-bounded sampling",
            estimated_detector_calls=sampler_calls,
            estimated_seconds=sampler_seconds,
        )
        cv_node = OperatorNode(
            "ControlVariateSampler",
            detail="adaptive CLT-bounded sampling, NN auxiliary",
            estimated_detector_calls=cv_calls,
            estimated_seconds=cv_seconds,
        )
        method = self.method
        if method == AggregateMethod.NAIVE_AQP:
            children = (sampler_node,)
        elif method == AggregateMethod.SPECIALIZED_REWRITE:
            children = (train_node, rewrite_node)
        elif method == AggregateMethod.CONTROL_VARIATES:
            children = (train_node, cv_node)
        else:
            children = (
                train_node,
                OperatorNode("BootstrapAccuracyGate", detail="Algorithm 1"),
                rewrite_node,
                cv_node,
                dataclasses.replace(
                    sampler_node, detail="fallback: too little training data"
                ),
            )
        return OperatorNode(
            "AggregateQueryPlan",
            detail=(
                f"aggregate={spec.aggregate}, class={spec.object_class}, "
                f"error={spec.error_tolerance} @ {spec.confidence:g}"
            ),
            children=children,
        )

    def _sampling_estimate(
        self,
        num_frames: int,
        stats: VideoStatistics | None,
        control_variate: bool,
    ) -> int:
        """Detector calls one sampling run is expected to stay under."""
        spec = self.spec
        if stats is None or spec.error_tolerance is None:
            # No catalog: the only certain bound is the population itself
            # (sampling is without replacement).
            return num_frames
        sigma = stats.count_std(spec.object_class)
        if control_variate:
            sigma *= math.sqrt(1.0 - ASSUMED_CV_CORRELATION**2)
        return sampling_calls_estimate(
            num_frames,
            sigma,
            spec.error_tolerance,
            spec.confidence,
            stats.value_range(spec.object_class),
        )

    def estimate_detector_calls(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> int:
        if self.exact_only():
            return num_frames
        if self.method == AggregateMethod.SPECIALIZED_REWRITE:
            return 0
        # Sampling-based strategies (and AUTO, whose worst runtime branch is
        # control variates): bound with the full count deviation — the
        # control variate can only reduce the variance the bound prices.
        return self._sampling_estimate(num_frames, stats, control_variate=False)

    def estimate_cost(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> CostEstimate:
        base = super().estimate_cost(num_frames, stats)
        # Every other strategy trains the specialized NN and runs it over the video.
        if stats is None or self.exact_only() or self.method == AggregateMethod.NAIVE_AQP:
            return base
        return CostEstimate(
            detector_calls=base.detector_calls,
            detector_seconds=base.detector_seconds,
            training_seconds=stats.specialized_training_seconds(),
            inference_seconds=stats.specialized_inference_seconds(num_frames),
        )

    # -- entry point ---------------------------------------------------------------

    def _stream(
        self, context: ExecutionContext, control: ExecutionControl
    ) -> Iterator[ExecutionEvent]:
        """Algorithm 1's decision procedure, as an event stream."""
        ledger = ExecutionLedger()
        yield Progress(
            phase="plan_selection", total_frames=context.video.num_frames
        )

        if self.exact_only():
            result = yield from self._stream_exact(context, control, ledger)
        elif self.method == AggregateMethod.NAIVE_AQP:
            with self._sampler.traced(context, ledger):
                result = yield from self._sampler.stream(context, control, ledger)
        else:
            result = yield from self._stream_specialized(context, control, ledger)
        # The sampling loop honours the detector budget by capping its
        # sample count, which ends it through the normal "population
        # exhausted" exit; attribute the early finish to the budget here.
        if control.stop_reason is None and control.out_of_budget(ledger):
            control.note_stop("max_detector_calls")
        yield Completed(result, stop_reason=control.stop_reason)

    def _stream_specialized(
        self,
        context: ExecutionContext,
        control: ExecutionControl,
        ledger: ExecutionLedger,
    ) -> Generator[ExecutionEvent, None, AggregateResult]:
        spec = self.spec
        method = self.method
        labeled = context.labeled_set
        enough_data = (
            labeled is not None
            and labeled.training_positives(spec.object_class)
            >= context.config.min_training_positives
        )
        if not enough_data:
            if method in (
                AggregateMethod.SPECIALIZED_REWRITE,
                AggregateMethod.CONTROL_VARIATES,
            ):
                raise PlanningError(
                    f"not enough training data for class {spec.object_class!r} to "
                    f"force {method.value}; the training day has too few positives"
                )
            with self._sampler.traced(context, ledger):
                return (yield from self._sampler.stream(context, control, ledger))

        yield Progress(phase="train_specialized_nn")
        with self._specialized.traced(context, ledger):
            model = self._specialized.train(context, ledger)
        if method == AggregateMethod.SPECIALIZED_REWRITE:
            with operator_scope(context, "QueryRewrite", ledger):
                return (
                    yield from self._specialized.stream_rewrite(
                        context, control, ledger, model
                    )
                )
        if method == AggregateMethod.CONTROL_VARIATES:
            with self._control_variates.traced(context, ledger):
                return (
                    yield from self._control_variates.stream(
                        context, control, ledger, model
                    )
                )

        # AUTO: Algorithm 1's accuracy gate.
        yield Progress(phase="accuracy_gate")
        with operator_scope(context, "BootstrapAccuracyGate", ledger):
            rewrite_ok = self._specialized.rewrite_within_tolerance(
                context, ledger, model
            )
        if rewrite_ok:
            with operator_scope(context, "QueryRewrite", ledger):
                return (
                    yield from self._specialized.stream_rewrite(
                        context, control, ledger, model
                    )
                )
        with self._control_variates.traced(context, ledger):
            return (
                yield from self._control_variates.stream(
                    context, control, ledger, model
                )
            )

    # -- exhaustive strategy -----------------------------------------------------------

    def _stream_exact(
        self,
        context: ExecutionContext,
        control: ExecutionControl,
        ledger: ExecutionLedger,
    ) -> Generator[ExecutionEvent, None, AggregateResult]:
        spec = self.spec
        object_class = spec.object_class
        num_frames = context.video.num_frames
        if spec.aggregate == "count_distinct":
            with self._scan.traced(context, ledger):
                results = yield from self._scan.stream_detections(
                    context, control, ledger
                )
            with self._tracks.traced(context, ledger):
                value = self._tracks.distinct_count(results, object_class)
            scanned = len(results)
            partial_note = "distinct count covers only the scanned prefix"
        else:
            assert object_class is not None  # enforced at plan construction
            with self._scan.traced(context, ledger):
                counts, scanned = yield from self._scan.stream_counts(
                    context,
                    control,
                    ledger,
                    object_class,
                    emit=lambda mean, taken: EstimateUpdate(
                        estimate=finalize_aggregate(spec, mean, num_frames),
                        half_width=0.0,
                        samples_used=taken,
                        confidence=spec.confidence,
                    ),
                )
            mean = float(counts.mean()) if counts.size else 0.0
            value = finalize_aggregate(spec, mean, num_frames)
            partial_note = "value computed from the scanned prefix only"
        description = "exact: object detection on every frame"
        if scanned < num_frames:
            description += (
                f" (stopped early: {scanned}/{num_frames} frames scanned; "
                f"{partial_note})"
            )
        return AggregateResult(
            kind="aggregate",
            method="exact",
            ledger=ledger,
            detection_calls=ledger.call_count(context.detector.cost.name),
            plan_description=description,
            value=value,
            error_tolerance=spec.error_tolerance,
            confidence=spec.confidence,
            samples_used=scanned,
        )
