"""Cost-based plan selection over the physical operator library (Section 5).

The optimizer works in two steps:

1. the analyzed query is expanded into every *eligible* physical candidate —
   alternative compositions of the operator library (exhaustive scan,
   sampling, specialized rewrite, control variates, importance ranking,
   filter cascades);
2. each candidate is priced by its own plan's ``estimate_cost`` from the
   statistics catalog, in **estimated detector calls plus specialization
   training cost**, and the cheapest wins.

A plan has one price, and it lives on the plan class: this module prices
nothing itself.  It enumerates the candidates (which exist, their names,
order and reasons), reads each one's ``estimate_cost``, zeroes the detector
buckets of an index-served video, and chooses.

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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.api.hints import NO_HINTS, QueryHints, require_hints
from repro.core.config import AggregateMethod, BlazeItConfig
from repro.core.results import OperatorNode, PlanCandidateSummary, PlanExplanation
from repro.errors import PlanningError, UnknownUDFError
from repro.frameql.analyzer import (
    AggregateQuerySpec,
    ExactQuerySpec,
    QuerySpec,
    ScrubbingQuerySpec,
    SelectionQuerySpec,
)
from repro.catalog.statistics import StatisticsCatalog, VideoStatistics
from repro.optimizer.aggregates import AggregateQueryPlan
from repro.optimizer.base import CostEstimate, PhysicalPlan
from repro.optimizer.exact import ExactQueryPlan
from repro.optimizer.scrubbing import ScrubbingQueryPlan
from repro.optimizer.selection import SelectionQueryPlan
from repro.udf.registry import UDFRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.detection.base import ObjectDetector
    from repro.index.view import IndexViews
    from repro.video.store import VideoStore


#: Relative + absolute margin a forced variant must clear to displace the
#: adaptive default candidate (see the module docstring).
SELECTION_TOLERANCE_RELATIVE = 0.10
SELECTION_TOLERANCE_SECONDS = 0.5

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
    #: ``"cost_model"`` normally; ``"fallback"`` when the plan was chosen
    #: without statistics and the stats-free rule decided instead.
    source: str = "cost_model"

    def describe(self) -> str:
        label = "sequential" if self.workers < 2 else f"{self.backend} x {self.workers}"
        return f"{label} [{self.source}] — {self.reason}"


class ParallelismModel:
    """Prices parallel execution: startup + speculation waste vs detector work.

    The parallel engine overlaps *detector* latency across shard workers;
    everything else a plan does (training, inference, filters) runs on the
    driver regardless.  So the model compares the plan's expected detector
    seconds — the cost estimate the optimizer chose the plan at, from its
    decision record — against ``startup x k`` plus the per-shard share
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

    def decide(
        self,
        cost: CostEstimate,
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
                    THREAD_STARTUP_SECONDS
                    if backend == "threads"
                    else PROCESS_STARTUP_SECONDS
                )
                seconds = (
                    startup * k + (useful_calls + waste_calls) * per_call / overlap
                )
                if best is None or seconds < best[0]:
                    best = (seconds, backend, k)
        if best is not None and sequential_seconds >= PARALLEL_MARGIN * best[0]:
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


def _index_served_tree(node: OperatorNode) -> OperatorNode:
    """``node`` with every operator's detector estimate zeroed.

    An operator that estimates detector calls prices only those calls in its
    seconds, and on an indexed video the index serves every one of them.
    """
    zeroed = (
        {"estimated_detector_calls": 0, "estimated_seconds": 0.0}
        if node.estimated_detector_calls
        else {}
    )
    return replace(
        node,
        children=tuple(_index_served_tree(child) for child in node.children),
        **zeroed,
    )


@dataclass(frozen=True, repr=False)
class PlanCandidate:
    """One priced physical alternative for a query."""

    name: str
    plan: PhysicalPlan
    cost: CostEstimate
    reason: str = ""
    #: Repriced for an index-served video: its detector work costs nothing.
    index_served: bool = False

    def __repr__(self) -> str:
        return f"PlanCandidate({self.name!r}, {self.cost.describe()})"


#: One enumerated candidate before pricing: its name, plan and reason, and —
#: for an adaptive candidate — the names of the forced variants it may run,
#: which price it.
_Alternative = tuple[str, PhysicalPlan, str, tuple[str, ...]]


@dataclass(frozen=True)
class PlanDecision:
    """What :meth:`CostBasedOptimizer.plan` decided, recorded on the plan.

    Written once, when the plan is chosen, and read by everything that
    reports or routes the plan afterwards — ``explain()`` renders it,
    EXPLAIN ANALYZE joins spans against its operator tree, routed
    parallelism prices its chosen cost — so none of them consults the
    (possibly since-changed) statistics catalog again.  It holds values
    only, never a candidate's plan, so a plan's record points at no plan.
    """

    #: EXPLAIN short of the routed verdict: the chosen plan, its estimated
    #: operator tree and detector calls (zeroed on an index-served video),
    #: the hints, and every priced candidate, default first, winner marked.
    explained: PlanExplanation
    hints: QueryHints
    #: The winner's price (by cost, or by ``force_plan``): routing prices it.
    cost: CostEstimate
    #: The statistics snapshot and the frame count the candidates were priced
    #: with (``None`` / the store's count for a video without statistics).
    stats: VideoStatistics | None
    num_frames: int

    def routed(
        self,
        default_workers: int,
        detector: ObjectDetector,
        batch_size: int | None = None,
        backend: str | None = None,
    ) -> ParallelismDecision:
        """The verdict on hint/config-routed parallelism for this plan.

        A pure function of the record and the routing inputs (the call's,
        else the plan's hints, else ``default_workers`` from the engine
        configuration): ``explain()`` and execution both call it, so the
        verdict shown is the one that runs.  Without statistics the
        stats-free rule decides: scrubbing stops at its ``LIMIT`` and
        declines (speculative prefetch measured a 0.44x regression at 4
        workers), every other plan scans and shards as requested.
        Exportability to process workers is probed only when processes are
        in play: the probe pickles the detector (a recorded test day
        refuses, so it keeps to threads).
        """
        from repro.core.context import spawn_refusal
        from repro.core.events import DEFAULT_BATCH_SIZE
        from repro.parallel.executor import WINDOW_CHUNKS

        hints = self.hints
        requested = default_workers if hints.parallelism is None else hints.parallelism
        backend_constraint = hints.backend if backend is None else backend
        if requested < 2:
            return ParallelismDecision(
                backend="sequential", workers=1, reason="parallelism not requested"
            )
        if self.stats is None:
            if self.explained.kind == "scrubbing":
                return ParallelismDecision(
                    backend="sequential",
                    workers=1,
                    reason="no catalog statistics to price: a LIMIT scan stops "
                    "early, so shard prefetch is declined",
                    source="fallback",
                )
            return ParallelismDecision(
                backend=backend_constraint or "threads",
                workers=requested,
                reason="no catalog statistics to price: scans shard as requested",
                source="fallback",
            )
        processes_in_play = detector.gil_bound or backend_constraint == "processes"
        process_ok = not processes_in_play or spawn_refusal(detector) is None
        return ParallelismModel().decide(
            cost=self.cost,
            stats=self.stats,
            num_frames=self.num_frames,
            requested=requested,
            batch_size=batch_size or hints.batch_size or DEFAULT_BATCH_SIZE,
            window_chunks=WINDOW_CHUNKS,
            gil_bound=detector.gil_bound,
            process_ok=process_ok,
            backend_constraint=backend_constraint,
        )

    def explanation(self, default_workers: int, detector: ObjectDetector) -> PlanExplanation:
        """The structured EXPLAIN of this decision, with its routed verdict."""
        return replace(
            self.explained, parallelism=self.routed(default_workers, detector).describe()
        )


class CostBasedOptimizer:
    """Chooses the cheapest eligible physical plan for an analyzed query.

    It reads values the engine owns (catalog, video store, index views) and
    holds no reference to the engine, so a dropped engine is freed at once.
    """

    def __init__(
        self,
        udf_registry: UDFRegistry,
        catalog: StatisticsCatalog | None = None,
        config: BlazeItConfig | None = None,
        store: VideoStore | None = None,
        index: IndexViews | None = None,
    ) -> None:
        self.udf_registry = udf_registry
        self.catalog = catalog if catalog is not None else StatisticsCatalog()
        self.config = config if config is not None else BlazeItConfig()
        #: The registered videos (the engine passes its store): their length
        #: sizes the costing of a video the catalog has no statistics for.
        self.store = store
        #: The views of a persistent index store (the engine passes its
        #: own).  When one covers the queried video, every candidate's
        #: detector work is index-served — decoded from memory-mapped
        #: segments or skipped outright by the range sketches — so detector
        #: calls and seconds are repriced to zero (training/inference/filter
        #: buckets are unaffected).
        self.index = index

    # -- public surface ------------------------------------------------------------

    def plan(self, spec: QuerySpec, hints: QueryHints | None = None) -> PhysicalPlan:
        """Build the physical plan for ``spec``, with its decision recorded.

        The returned plan's ``decision`` is the :class:`PlanDecision` the
        choice was made on — candidates, statistics snapshot, estimated
        operator tree — for ``explain()`` and routing to read afterwards.

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
        candidates = self.candidates(spec, hints)
        stats, num_frames = self._pricing_inputs(spec)
        chosen = self._select(candidates, hints, stats)
        operators = chosen.plan.operator_tree(num_frames=num_frames, stats=stats)
        estimated_calls = chosen.plan.estimate_detector_calls(num_frames, stats)
        if chosen.index_served:
            # Every detection is served from persisted segments: the bound on
            # charged detector calls collapses to zero, in the total and on
            # every operator of the tree.
            operators = _index_served_tree(operators)
            estimated_calls = 0
        chosen.plan.decision = PlanDecision(
            explained=PlanExplanation(
                kind=spec.kind.value,
                plan_summary=chosen.plan.describe(),
                operators=operators,
                estimated_detector_calls=estimated_calls,
                hints_applied=hints.describe(),
                candidates=tuple(
                    PlanCandidateSummary(
                        name=candidate.name,
                        detector_calls=candidate.cost.detector_calls,
                        total_seconds=candidate.cost.total_seconds,
                        chosen=candidate is chosen,
                        reason=candidate.reason,
                    )
                    for candidate in candidates
                ),
            ),
            hints=hints,
            cost=chosen.cost,
            stats=stats,
            num_frames=num_frames,
        )
        return chosen.plan

    def candidates(
        self, spec: QuerySpec, hints: QueryHints | None = None
    ) -> list[PlanCandidate]:
        """Every eligible physical candidate for ``spec``, default first.

        Each is priced by its own plan's ``estimate_cost``; an adaptive
        candidate at the cheapest forced variant it may run (the first
        listed wins a tie).
        """
        require_hints(hints)
        hints = hints or NO_HINTS
        stats, num_frames = self._pricing_inputs(spec)
        alternatives = self._alternatives(spec, hints, stats)
        costs = {
            name: plan.estimate_cost(num_frames, stats)
            for name, plan, _, runs in alternatives
            if not runs
        }
        candidates = [
            PlanCandidate(
                name,
                plan,
                min((costs[run] for run in runs), key=lambda c: c.total_seconds)
                if runs
                else costs[name],
                reason=reason,
            )
            for name, plan, reason, runs in alternatives
        ]
        if self._index_covers(spec, hints):
            candidates = [self._index_priced(candidate) for candidate in candidates]
        return candidates

    # -- shared pieces -------------------------------------------------------------

    def _pricing_inputs(
        self, spec: QuerySpec
    ) -> tuple[VideoStatistics | None, int]:
        """The statistics snapshot and the frame count candidates are priced
        over: the catalog's, else the registered video's length."""
        stats = self.catalog.get(spec.video)
        if stats is not None:
            return stats, stats.num_frames
        return None, self.store.num_frames(spec.video) if self.store is not None else 0

    def _index_covers(self, spec: QuerySpec, hints: QueryHints) -> bool:
        """Whether a persistent index serves this query's detector work.

        True only when the engine wired an index store in, the hint set does
        not opt out (``use_index=False``), and the store holds a committed
        generation for the query's video under the current detector identity.
        """
        if self.index is None or hints.use_index is False:
            return False
        return self.index.view(spec.video) is not None

    def _index_priced(self, candidate: PlanCandidate) -> PlanCandidate:
        """Reprice one candidate for index-served detections.

        Every detection the plan would charge is answered from the persistent
        index (memory-mapped segment decode, or a sketch-proven empty frame),
        so detector calls and seconds drop to zero.  Training, inference and
        filter costs still apply: the specialized pipeline and filter
        cascades run regardless of where detections come from.
        """
        cost = replace(candidate.cost, detector_calls=0, detector_seconds=0.0)
        suffix = "index-served detections: detector cost repriced to zero"
        reason = f"{candidate.reason} [{suffix}]" if candidate.reason else suffix
        return replace(candidate, cost=cost, reason=reason, index_served=True)

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
        """The one selection rule: ``force_plan`` names the candidate, else
        the cheapest wins, with the adaptive-default preference.

        Without statistics there is nothing to price, so the default (first)
        candidate — the historical rule-based mapping — is chosen outright.
        """
        if hints.force_plan is not None:
            for candidate in candidates:
                if candidate.name == hints.force_plan:
                    return candidate
            valid = ", ".join(candidate.name for candidate in candidates)
            raise PlanningError(
                f"force_plan={hints.force_plan!r} names no eligible candidate "
                f"for this query; eligible candidates: {valid}"
            )
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

    # -- enumeration ---------------------------------------------------------------

    def _alternatives(
        self,
        spec: QuerySpec,
        hints: QueryHints,
        stats: VideoStatistics | None,
    ) -> list[_Alternative]:
        """The eligible plans for ``spec``, default first, with their reasons."""
        if isinstance(spec, AggregateQuerySpec):
            return self._aggregate_alternatives(spec, hints, stats)
        if isinstance(spec, ScrubbingQuerySpec):
            trained = (
                stats is not None and stats.training_event_count(spec.min_counts) > 0
            )
            return [
                (
                    "importance",
                    ScrubbingQueryPlan(spec, hints=hints),
                    "NN ranks frames; detector verifies down the ranking"
                    if trained
                    else "no training instances: falls back to the "
                    "sequential scan at runtime",
                    (),
                ),
                (
                    "exhaustive",
                    ScrubbingQueryPlan(spec, hints=hints, strategy="exhaustive"),
                    "sequential detection scan until the limit is met",
                    (),
                ),
            ]
        if isinstance(spec, SelectionQuerySpec):
            return [
                (
                    "filtered",
                    SelectionQueryPlan(spec, hints=hints),
                    "no-false-negative filter cascade before detection",
                    (),
                ),
                (
                    "exhaustive",
                    SelectionQueryPlan(spec, enabled_filter_classes=set(), hints=hints),
                    "detect every frame, no filters",
                    (),
                ),
            ]
        if isinstance(spec, ExactQuerySpec):
            return [
                (
                    "exhaustive",
                    ExactQueryPlan(spec, hints=hints),
                    "unrecognised query shape: full scan, all records",
                    (),
                )
            ]
        raise PlanningError(
            f"no plan rule for query spec of type {type(spec).__name__}"
        )

    def _aggregate_alternatives(
        self,
        spec: AggregateQuerySpec,
        hints: QueryHints,
        stats: VideoStatistics | None,
    ) -> list[_Alternative]:
        auto_plan = AggregateQueryPlan(spec, hints=hints)
        if auto_plan.exact_only():
            return [
                (
                    "exact",
                    auto_plan,
                    "no error tolerance (or COUNT DISTINCT): "
                    "every frame must be detected",
                    (),
                )
            ]
        class_stats = stats.class_stats(spec.object_class) if stats else None
        specializable = (
            class_stats is not None
            and class_stats.training_positives >= self.config.min_training_positives
        )
        # Forced variants: each candidate's name is its ``AggregateMethod`` value.
        forced = [
            ("exact", "detection on every frame"),
            ("naive_aqp", "uniform sampling, CLT stop"),
        ]
        if specializable:
            # The adaptive plan runs whichever branch its accuracy gate admits.
            auto_reason = (
                "Algorithm 1: held-out batch-means error bound picks "
                "rewrite or control variates at runtime"
            )
            auto_runs: tuple[str, ...] = ("specialized_rewrite", "control_variates")
            forced += [
                ("specialized_rewrite", "specialized NN replaces the detector outright"),
                ("control_variates", "variance-reduced sampling, NN auxiliary"),
            ]
        else:
            auto_reason = "too few training positives: adaptive sampling"
            auto_runs = ("naive_aqp",)
        return [("auto", auto_plan, auto_reason, auto_runs)] + [
            (
                name,
                AggregateQueryPlan(spec, hints=hints, method=AggregateMethod(name)),
                reason,
                (),
            )
            for name, reason in forced
        ]
