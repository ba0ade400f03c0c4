"""Cost-based plan selection over the physical operator library (Section 5).

The optimizer works in two steps:

1. the analyzed query is expanded into every *eligible* physical candidate —
   alternative compositions of the operator library (exhaustive scan,
   sampling, specialized rewrite, control variates, importance ranking,
   filter cascades);
2. each candidate is priced from the statistics catalog in **estimated
   detector calls plus specialization training cost**, and the cheapest wins.

Two deliberate asymmetries keep planning honest:

* The *adaptive* candidate of each query class (Algorithm 1's accuracy gate,
  the scrubbing fallback rule) is listed first and priced at the best of the
  strategies it can choose at runtime, because that is what it will actually
  do — it therefore wins ties against the forced variants it subsumes.
* A forced variant must beat the adaptive default by a clear margin
  (the ``SELECTION_TOLERANCE_*`` constants) before it is chosen over it:
  catalog statistics are held-out estimates, and the adaptive plans are
  robust to their errors in a way a forced strategy is not.

On the paper's target workloads (rare events, specializable classes) the
winner is therefore the same plan the historical rules produced — results
included, bit for bit.  When the statistics clearly contradict the rules
(e.g. scrubbing an event so common that a sequential scan crosses the limit
in a handful of detections, while ranking would first train a specialized NN
over the whole labeled set), the cheaper candidate wins instead; that is the
point of having a cost model.

``QueryHints.force_plan`` bypasses the choice entirely and picks a candidate
by name — the escape hatch for benchmarks and for users who know better, and
the only way to force a strategy short of constructing a plan directly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.hints import NO_HINTS, QueryHints, require_hints
from repro.core.config import AggregateMethod, BlazeItConfig
from repro.metrics.runtime import StandardCosts
from repro.core.results import PlanCandidateSummary, PlanExplanation
from repro.errors import PlanningError, UnknownUDFError
from repro.frameql.analyzer import (
    AggregateQuerySpec,
    ExactQuerySpec,
    QuerySpec,
    ScrubbingQuerySpec,
    SelectionQuerySpec,
)
from repro.catalog.statistics import StatisticsCatalog, VideoStatistics
from repro.optimizer.aggregates import (
    ASSUMED_CV_CORRELATION,
    AggregateQueryPlan,
    sampling_calls_estimate,
)
from repro.optimizer.base import CostEstimate, PhysicalPlan
from repro.optimizer.exact import ExactQueryPlan
from repro.optimizer.scrubbing import ScrubbingQueryPlan
from repro.optimizer.selection import SelectionQueryPlan
from repro.udf.registry import UDFRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.recorded import RecordedDetections
    from repro.detection.base import ObjectDetector


#: Relative + absolute margin a forced variant must clear to displace the
#: adaptive default candidate (see the module docstring).
SELECTION_TOLERANCE_RELATIVE = 0.10
SELECTION_TOLERANCE_SECONDS = 0.5

#: Expected detector verifications down an importance ranking, in multiples
#: of the limit: an informative ranking concentrates true positives at the
#: front, so verification touches roughly the limit plus overshoot — far
#: fewer frames than a sequential scan needs to cross the same number of
#: events (``limit / event_rate``).  Capped at the sequential figure: an
#: uninformative ranking degrades to random order, never below it.
RANKING_OVERSHOOT = 2

#: Modeled per-worker startup of the two parallel backends, expressed in the
#: cost model's currency (detector-equivalent seconds).  Threads are nearly
#: free; a spawned process pays a fresh interpreter plus the numpy/repro
#: imports before its first chunk — the figure is calibrated from measured
#: wall cost (see ``benchmarks/bench_parallel.py``).
THREAD_STARTUP_SECONDS = 0.05
PROCESS_STARTUP_SECONDS = 2.0

#: Predicted-speedup margin a parallel configuration must clear before the
#: model picks it over sequential execution: startup and speculation
#: estimates are rough, and a sequential run is never wrong — only slow.
PARALLEL_MARGIN = 1.3


@dataclass(frozen=True)
class ParallelismDecision:
    """The optimizer's verdict on how to execute one plan in parallel."""

    #: ``"sequential"``, ``"threads"`` or ``"processes"``.
    backend: str
    #: Worker count (``1`` for sequential).
    workers: int
    #: Human-readable justification, surfaced by ``explain()``.
    reason: str
    #: Modeled detector seconds of the sequential execution.
    sequential_seconds: float = 0.0
    #: Modeled seconds of the chosen configuration (equals
    #: ``sequential_seconds`` when sequential wins).
    parallel_seconds: float = 0.0
    #: ``"cost_model"`` normally; ``"fallback"`` when no statistics existed
    #: and the plan-level profitability gate decided instead.
    source: str = "cost_model"

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def describe(self) -> str:
        label = (
            "sequential"
            if not self.parallel
            else f"{self.backend} x {self.workers}"
        )
        return f"{label} [{self.source}] — {self.reason}"


class ParallelismModel:
    """Prices parallel execution: startup + speculation waste vs detector work.

    The parallel engine overlaps *detector* latency across shard workers;
    everything else a plan does (training, inference, filters) runs on the
    driver regardless.  So the model compares the plan's expected detector
    seconds — taken from the cost estimate the optimizer already produced
    when it chose the plan — against ``startup x k`` plus the per-shard share
    of useful work *and* speculative waste: workers compute the announced
    order eagerly, so a plan that consumes only a short prefix (an
    importance-ranked scrub crossing its LIMIT early) pays for prefetched
    frames it never reads.  Cheap importance-ranked scans therefore lose to
    sequential execution on principle, not by a blanket rule.

    Backend choice follows the detector: threads when it releases the GIL
    during its latency (the normal, well-behaved case — process startup is
    two orders of magnitude dearer), processes when it declares itself
    ``gil_bound`` and the context can be exported to spawned workers.
    """

    def __init__(
        self,
        thread_startup_seconds: float = THREAD_STARTUP_SECONDS,
        process_startup_seconds: float = PROCESS_STARTUP_SECONDS,
        margin: float = PARALLEL_MARGIN,
    ) -> None:
        self.thread_startup_seconds = thread_startup_seconds
        self.process_startup_seconds = process_startup_seconds
        self.margin = margin

    def decide(
        self,
        plan: PhysicalPlan,
        stats: VideoStatistics,
        num_frames: int,
        requested: int,
        batch_size: int,
        window_chunks: int,
        gil_bound: bool = False,
        process_ok: bool = True,
        backend_constraint: str | None = None,
    ) -> ParallelismDecision:
        """Choose ``{sequential, threads x k, processes x k}`` for one plan.

        ``requested`` is the routed worker count (hints or engine config);
        the model may choose fewer workers, never more.
        ``backend_constraint`` (from ``QueryHints.backend``) restricts the
        choice to one backend without forcing parallelism itself.
        """
        if requested < 2:
            return ParallelismDecision(
                backend="sequential",
                workers=1,
                reason="parallelism not requested",
            )
        cost = plan.planned_cost
        if cost is None:
            cost = plan.estimate_cost(num_frames, stats)
        useful_calls = min(max(int(cost.detector_calls), 0), num_frames)
        per_call = stats.detector_seconds_per_call
        sequential_seconds = useful_calls * per_call

        backends = self._backend_order(gil_bound, process_ok, backend_constraint)
        best: tuple[float, str, int] | None = None
        for k in self._worker_counts(requested):
            waste_calls = min(
                max(0, num_frames - useful_calls),
                k * window_chunks * batch_size,
            )
            for backend in backends:
                # A GIL-bound detector serializes thread workers: they pay
                # startup and speculation with no overlap at all.
                overlap = 1 if (backend == "threads" and gil_bound) else k
                startup = (
                    self.thread_startup_seconds
                    if backend == "threads"
                    else self.process_startup_seconds
                )
                seconds = (
                    startup * k + (useful_calls + waste_calls) * per_call / overlap
                )
                if best is None or seconds < best[0]:
                    best = (seconds, backend, k)
        if best is not None and sequential_seconds >= self.margin * best[0]:
            seconds, backend, k = best
            return ParallelismDecision(
                backend=backend,
                workers=k,
                reason=(
                    f"{useful_calls} expected detector calls amortize "
                    f"{k} x {backend} startup "
                    f"({sequential_seconds:.1f}s -> {seconds:.1f}s modeled)"
                ),
                sequential_seconds=sequential_seconds,
                parallel_seconds=seconds,
            )
        return ParallelismDecision(
            backend="sequential",
            workers=1,
            reason=(
                f"{useful_calls} expected detector calls don't amortize "
                "worker startup and speculative prefetch"
                + (
                    f" (best parallel config modeled {best[0]:.1f}s vs "
                    f"{sequential_seconds:.1f}s sequential)"
                    if best is not None
                    else ""
                )
            ),
            sequential_seconds=sequential_seconds,
            parallel_seconds=sequential_seconds,
        )

    def _backend_order(
        self, gil_bound: bool, process_ok: bool, constraint: str | None
    ) -> list[str]:
        order = ["processes", "threads"] if gil_bound else ["threads", "processes"]
        if not process_ok:
            order = [b for b in order if b != "processes"]
        if constraint is not None:
            order = [b for b in order if b == constraint]
        return order

    def _worker_counts(self, requested: int) -> list[int]:
        counts = []
        k = requested
        while k >= 2:
            counts.append(k)
            k //= 2
        return counts


def routed_parallelism(
    plan: PhysicalPlan,
    stats: VideoStatistics,
    num_frames: int,
    requested: int,
    batch_size: int,
    backend_constraint: str | None,
    detector: "ObjectDetector",
    recorded: "RecordedDetections | None",
) -> ParallelismDecision:
    """The verdict on hint/config-routed parallelism for one plan.

    The single place ``explain()`` and execution both ask, so they cannot
    disagree.  Exportability to process workers is probed only when
    processes are actually in play: the probe pickles the detector.
    """
    from repro.core.context import spawn_refusal
    from repro.parallel.executor import WINDOW_CHUNKS

    processes_in_play = detector.gil_bound or backend_constraint == "processes"
    process_ok = not processes_in_play or spawn_refusal(detector, recorded) is None
    return ParallelismModel().decide(
        plan=plan,
        stats=stats,
        num_frames=num_frames,
        requested=requested,
        batch_size=batch_size,
        window_chunks=WINDOW_CHUNKS,
        gil_bound=detector.gil_bound,
        process_ok=process_ok,
        backend_constraint=backend_constraint,
    )


class PlanCandidate:
    """One priced physical alternative for a query."""

    def __init__(
        self,
        name: str,
        plan: PhysicalPlan,
        cost: CostEstimate,
        reason: str = "",
    ) -> None:
        self.name = name
        self.plan = plan
        self.cost = cost
        self.reason = reason

    def __repr__(self) -> str:
        return f"PlanCandidate({self.name!r}, {self.cost.describe()})"

    def summary(self, chosen: bool) -> PlanCandidateSummary:
        """The explanation-facing summary of this candidate."""
        return PlanCandidateSummary(
            name=self.name,
            detector_calls=self.cost.detector_calls,
            total_seconds=self.cost.total_seconds,
            chosen=chosen,
            reason=self.reason,
        )


class CostBasedOptimizer:
    """Chooses the cheapest eligible physical plan for an analyzed query."""

    def __init__(
        self,
        udf_registry: UDFRegistry,
        catalog: StatisticsCatalog | None = None,
        config: BlazeItConfig | None = None,
        index_lookup: Callable[[str], bool] | None = None,
    ) -> None:
        self.udf_registry = udf_registry
        self.catalog = catalog if catalog is not None else StatisticsCatalog()
        self.config = config if config is not None else BlazeItConfig()
        #: Predicate answering "does a committed persistent index cover this
        #: video?" (the engine passes its index store's lookup).  When it
        #: answers yes, every candidate's detector work is index-served —
        #: decoded from memory-mapped segments or skipped outright by the
        #: range sketches — so detector calls and seconds are repriced to
        #: zero (training/inference/filter buckets are unaffected).
        self.index_lookup = index_lookup

    # -- public surface ------------------------------------------------------------

    def plan(self, spec: QuerySpec, hints: QueryHints | None = None) -> PhysicalPlan:
        """Build the physical plan for ``spec``.

        Parameters
        ----------
        spec:
            Analyzed query specification.
        hints:
            Typed execution hints (see :class:`~repro.api.hints.QueryHints`).
            ``hints.force_plan`` selects a candidate by name instead of by
            cost.
        """
        require_hints(hints)
        hints = hints or NO_HINTS
        self._validate_udfs(spec)
        chosen = self._select(
            self.candidates(spec, hints), hints, self.statistics_for(spec)
        )
        # Stamp the price the plan was chosen at: the parallelism model (and
        # anyone else reasoning about the plan post-choice) reads it so the
        # expected detector work agrees with the selection itself.
        chosen.plan.planned_cost = chosen.cost
        return chosen.plan

    def statistics_for(self, spec: QuerySpec) -> VideoStatistics | None:
        """Catalog statistics for the query's video, if registered."""
        return self.catalog.get(spec.video)

    def candidates(
        self,
        spec: QuerySpec,
        hints: QueryHints | None = None,
        num_frames: int | None = None,
    ) -> list[PlanCandidate]:
        """Every eligible physical candidate for ``spec``, default first.

        ``num_frames`` sizes the costing when the statistics catalog has no
        entry for the query's video (explanations pass the store's frame
        count); with catalog statistics it is taken from them.
        """
        require_hints(hints)
        hints = hints or NO_HINTS
        stats = self.statistics_for(spec)
        if stats is not None:
            num_frames = stats.num_frames
        elif num_frames is None:
            num_frames = 0
        if isinstance(spec, AggregateQuerySpec):
            candidates = self._aggregate_candidates(spec, hints, stats, num_frames)
        elif isinstance(spec, ScrubbingQuerySpec):
            candidates = self._scrubbing_candidates(spec, hints, stats, num_frames)
        elif isinstance(spec, SelectionQuerySpec):
            candidates = self._selection_candidates(spec, hints, stats, num_frames)
        elif isinstance(spec, ExactQuerySpec):
            candidates = self._exact_candidates(spec, hints, stats, num_frames)
        else:
            raise PlanningError(
                f"no plan rule for query spec of type {type(spec).__name__}"
            )
        if self._index_covers(spec, hints):
            candidates = [self._index_priced(candidate) for candidate in candidates]
        return candidates

    def choose(
        self, candidates: list[PlanCandidate], stats: VideoStatistics | None
    ) -> PlanCandidate:
        """Pick the cheapest candidate, with the adaptive-default preference.

        Without statistics there is nothing to price, so the default (first)
        candidate — the historical rule-based mapping — is chosen outright.
        """
        if stats is None or len(candidates) == 1:
            return candidates[0]
        best = min(candidate.cost.total_seconds for candidate in candidates)
        threshold = best * (1.0 + SELECTION_TOLERANCE_RELATIVE) + (
            SELECTION_TOLERANCE_SECONDS
        )
        for candidate in candidates:
            if candidate.cost.total_seconds <= threshold:
                return candidate
        return candidates[0]  # pragma: no cover - threshold >= best is total

    def explain_plan(
        self,
        spec: QuerySpec,
        plan: PhysicalPlan,
        hints: QueryHints | None,
        num_frames: int,
        detector: "ObjectDetector",
        recorded: "RecordedDetections | None",
    ) -> PlanExplanation:
        """Structured explanation of ``plan``, with per-operator costs.

        ``detector`` and ``recorded`` are the video's detection sources (the
        session passes the engine's): the parallelism verdict accounts for
        GIL behaviour and process exportability exactly as execution will.
        """
        hints = hints or NO_HINTS
        stats = self.statistics_for(spec)
        candidates = self.candidates(spec, hints, num_frames=num_frames)
        chosen = self._select(candidates, hints, stats).name
        estimated_calls = plan.estimate_detector_calls(num_frames, stats)
        if self._index_covers(spec, hints):
            # Sketch-tightened estimate: with a committed index every
            # detection is served from persisted segments, so the bound on
            # charged detector calls collapses to zero.
            estimated_calls = 0
        return PlanExplanation(
            kind=spec.kind.value,
            plan_summary=plan.describe(),
            operators=plan.operator_tree(num_frames=num_frames, stats=stats),
            estimated_detector_calls=estimated_calls,
            hints_applied=hints.describe(),
            candidates=tuple(
                candidate.summary(chosen=candidate.name == chosen)
                for candidate in candidates
            ),
            parallelism=self._explain_parallelism(
                plan, hints, stats, num_frames, detector, recorded
            ),
        )

    def _explain_parallelism(
        self,
        plan: PhysicalPlan,
        hints: QueryHints,
        stats: VideoStatistics | None,
        num_frames: int,
        detector: "ObjectDetector",
        recorded: "RecordedDetections | None",
    ) -> str:
        """The routed-parallelism verdict, as ``explain()`` surfaces it."""
        from repro.core.events import DEFAULT_BATCH_SIZE

        requested = (
            hints.parallelism
            if hints.parallelism is not None
            else self.config.parallelism
        )
        if requested < 2:
            return ParallelismDecision(
                backend="sequential", workers=1, reason="parallelism not requested"
            ).describe()
        if stats is None:
            return ParallelismDecision(
                backend="sequential",
                workers=1,
                reason=(
                    "no catalog statistics to price: the plan-level "
                    "profitability gate decides at execution"
                ),
                source="fallback",
            ).describe()
        batch_size = (
            hints.batch_size if hints.batch_size is not None else DEFAULT_BATCH_SIZE
        )
        return routed_parallelism(
            plan,
            stats,
            num_frames=num_frames,
            requested=requested,
            batch_size=batch_size,
            backend_constraint=hints.backend,
            detector=detector,
            recorded=recorded,
        ).describe()

    # -- shared pieces -------------------------------------------------------------

    def _index_covers(self, spec: QuerySpec, hints: QueryHints) -> bool:
        """Whether a persistent index serves this query's detector work.

        True only when the engine wired an index store in, the hint set does
        not opt out (``use_index=False``), and the store holds a committed
        generation for the query's video under the current detector identity.
        """
        if self.index_lookup is None or hints.use_index is False:
            return False
        return bool(self.index_lookup(spec.video))

    def _index_priced(self, candidate: PlanCandidate) -> PlanCandidate:
        """Reprice one candidate for index-served detections.

        Every detection the plan would charge is answered from the persistent
        index (memory-mapped segment decode, or a sketch-proven empty frame),
        so detector calls and seconds drop to zero.  Training, inference and
        filter costs still apply: the specialized pipeline and filter
        cascades run regardless of where detections come from.
        """
        cost = CostEstimate(
            detector_calls=0,
            detector_seconds=0.0,
            training_seconds=candidate.cost.training_seconds,
            inference_seconds=candidate.cost.inference_seconds,
            filter_seconds=candidate.cost.filter_seconds,
        )
        suffix = "index-served detections: detector cost repriced to zero"
        reason = f"{candidate.reason} [{suffix}]" if candidate.reason else suffix
        return PlanCandidate(candidate.name, candidate.plan, cost, reason=reason)

    def _validate_udfs(self, spec: QuerySpec) -> None:
        predicates = getattr(spec, "udf_predicates", [])
        for predicate in predicates:
            if predicate.udf_name not in self.udf_registry:
                raise UnknownUDFError(
                    f"query uses unregistered UDF {predicate.udf_name!r}"
                )

    def _select(
        self,
        candidates: list[PlanCandidate],
        hints: QueryHints,
        stats: VideoStatistics | None,
    ) -> PlanCandidate:
        """The one selection rule: ``force_plan`` names the candidate, else cost."""
        if hints.force_plan is not None:
            for candidate in candidates:
                if candidate.name == hints.force_plan:
                    return candidate
            valid = ", ".join(candidate.name for candidate in candidates)
            raise PlanningError(
                f"force_plan={hints.force_plan!r} names no eligible candidate "
                f"for this query; eligible candidates: {valid}"
            )
        return self.choose(candidates, stats)

    def _detector_cost(
        self, calls: int, stats: VideoStatistics | None
    ) -> CostEstimate:
        if stats is not None:
            seconds = stats.detector_seconds(calls)
        else:
            # No catalog entry: price at the paper's Mask R-CNN rate so
            # explanations still show meaningful magnitudes.
            seconds = calls * StandardCosts.MASK_RCNN.seconds_per_call
        return CostEstimate(detector_calls=calls, detector_seconds=seconds)

    # -- per-class enumeration -----------------------------------------------------

    def _aggregate_candidates(
        self,
        spec: AggregateQuerySpec,
        hints: QueryHints,
        stats: VideoStatistics | None,
        num_frames: int,
    ) -> list[PlanCandidate]:
        exact_cost = self._detector_cost(num_frames, stats)
        auto_plan = AggregateQueryPlan(spec, hints=hints)
        if auto_plan.exact_only():
            return [
                PlanCandidate(
                    "exact",
                    auto_plan,
                    exact_cost,
                    reason="no error tolerance (or COUNT DISTINCT): "
                    "every frame must be detected",
                )
            ]

        error_tolerance = spec.error_tolerance
        assert error_tolerance is not None  # guaranteed by exact_only()
        class_stats = stats.class_stats(spec.object_class) if stats else None
        sigma = class_stats.count_std if class_stats is not None else 0.0
        value_range = (
            stats.value_range(spec.object_class) if stats is not None else 2.0
        )
        aqp_calls = sampling_calls_estimate(
            num_frames, sigma, error_tolerance, spec.confidence, value_range
        )
        aqp_cost = self._detector_cost(aqp_calls, stats)

        specializable = (
            class_stats is not None
            and class_stats.training_positives >= self.config.min_training_positives
        )
        # Forced variants: each candidate's name is its ``AggregateMethod`` value.
        forced = [
            ("exact", exact_cost, "detection on every frame"),
            ("naive_aqp", aqp_cost, "uniform sampling, CLT stop"),
        ]
        auto_cost = aqp_cost
        auto_reason = "too few training positives: adaptive sampling"
        if specializable and stats is not None:
            training = stats.specialized_training_seconds()
            inference = stats.specialized_inference_seconds(num_frames)
            rewrite_cost = CostEstimate(
                detector_calls=0,
                training_seconds=training,
                inference_seconds=inference,
            )
            residual_sigma = sigma * math.sqrt(1.0 - ASSUMED_CV_CORRELATION**2)
            cv_calls = sampling_calls_estimate(
                num_frames,
                residual_sigma,
                error_tolerance,
                spec.confidence,
                value_range,
            )
            cv_cost = CostEstimate(
                detector_calls=cv_calls,
                detector_seconds=stats.detector_seconds(cv_calls),
                training_seconds=training,
                inference_seconds=inference,
            )
            # The adaptive plan runs whichever branch its accuracy gate
            # admits; price it at the better of the two.
            auto_cost = min(
                (rewrite_cost, cv_cost), key=lambda cost: cost.total_seconds
            )
            auto_reason = (
                "Algorithm 1: bootstrap gate picks rewrite or "
                "control variates at runtime"
            )
            forced += [
                (
                    "specialized_rewrite",
                    rewrite_cost,
                    "specialized NN replaces the detector outright",
                ),
                ("control_variates", cv_cost, "variance-reduced sampling, NN auxiliary"),
            ]
        return [PlanCandidate("auto", auto_plan, auto_cost, reason=auto_reason)] + [
            PlanCandidate(
                name,
                AggregateQueryPlan(spec, hints=hints, method=AggregateMethod(name)),
                cost,
                reason=reason,
            )
            for name, cost, reason in forced
        ]

    def _scrubbing_candidates(
        self,
        spec: ScrubbingQuerySpec,
        hints: QueryHints,
        stats: VideoStatistics | None,
        num_frames: int,
    ) -> list[PlanCandidate]:
        importance = ScrubbingQueryPlan(spec, hints=hints)
        exhaustive = ScrubbingQueryPlan(spec, hints=hints, strategy="exhaustive")
        # Expected verification work, not the conservative per-plan bound:
        # a sequential scan crosses ``limit / event_rate`` frames before the
        # limit-th event, while an informative ranking concentrates the true
        # positives at the front and verifies only a small multiple of the
        # limit (capped at the sequential figure — an uninformative ranking
        # degrades to random order, never below it).
        rate = stats.event_rate(spec.min_counts) if stats is not None else 0.0
        if rate > 0.0:
            # A GAP constraint makes the sequential scan cross (limit-1)*gap
            # frames no matter how common the event is; on bursty videos the
            # empty stretches between bursts are charged, so they are priced
            # in full.
            sequential_calls = min(
                num_frames,
                math.ceil(spec.limit / rate) + (spec.limit - 1) * spec.gap,
            )
        else:
            sequential_calls = num_frames
        trained = (
            stats is not None and stats.training_event_count(spec.min_counts) > 0
        )
        exhaustive_cost = self._detector_cost(sequential_calls, stats)
        if trained and stats is not None:
            ranked_calls = min(spec.limit * RANKING_OVERSHOOT, sequential_calls)
            importance_cost = CostEstimate(
                detector_calls=ranked_calls,
                detector_seconds=stats.detector_seconds(ranked_calls),
                training_seconds=(
                    0.0 if importance.indexed else stats.specialized_training_seconds()
                ),
                inference_seconds=(
                    0.0
                    if importance.indexed
                    else stats.specialized_inference_seconds(num_frames)
                ),
            )
        else:
            # No training instances: the plan falls back to the sequential
            # scan at runtime without training anything.
            importance_cost = exhaustive_cost
        return [
            PlanCandidate(
                "importance",
                importance,
                importance_cost,
                reason=(
                    "NN ranks frames; detector verifies down the ranking"
                    if trained
                    else "no training instances: falls back to the "
                    "sequential scan at runtime"
                ),
            ),
            PlanCandidate(
                "exhaustive",
                exhaustive,
                exhaustive_cost,
                reason="sequential detection scan until the limit is met",
            ),
        ]

    def _selection_candidates(
        self,
        spec: SelectionQuerySpec,
        hints: QueryHints,
        stats: VideoStatistics | None,
        num_frames: int,
    ) -> list[PlanCandidate]:
        filtered = SelectionQueryPlan(spec, hints=hints)
        exhaustive = SelectionQueryPlan(
            spec, enabled_filter_classes=set(), hints=hints
        )
        return [
            PlanCandidate(
                "filtered",
                filtered,
                filtered.estimate_cost(num_frames, stats),
                reason="no-false-negative filter cascade before detection",
            ),
            PlanCandidate(
                "exhaustive",
                exhaustive,
                exhaustive.estimate_cost(num_frames, stats),
                reason="detect every frame, no filters",
            ),
        ]

    def _exact_candidates(
        self,
        spec: ExactQuerySpec,
        hints: QueryHints,
        stats: VideoStatistics | None,
        num_frames: int,
    ) -> list[PlanCandidate]:
        return [
            PlanCandidate(
                "exhaustive",
                ExactQueryPlan(spec, hints=hints),
                self._detector_cost(num_frames, stats),
                reason="unrecognised query shape: full scan, all records",
            )
        ]
