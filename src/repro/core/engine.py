"""The BlazeIt engine: register videos, build labeled sets, run FrameQL queries.

The session API is the primary query surface — prepare once, execute many::

    from repro import BlazeIt, Q, FCOUNT

    engine = BlazeIt()
    engine.register_scenario("taipei", num_frames=4000)

    with engine.session() as session:
        prepared = session.prepare(
            Q.select(FCOUNT()).from_("taipei").where(cls="car")
            .error_within(0.1).confidence(0.95)
        )
        result = prepared.execute()
        print(result.value, result.runtime_seconds)
        print(prepared.explain().render())

``engine.query(text)`` remains as a one-shot convenience (a throwaway
session under the hood).  The historical ``scrubbing_indexed`` /
``selection_filter_classes`` keyword arguments (deprecated since the typed
hints landed) have been removed; pass ``hints=QueryHints(...)``.

The engine owns the video store, the per-video detectors, the labeled sets
(training + held-out days annotated by the detector), the statistics catalog
computed from them, the UDF registry, the cost-based optimizer and the root
random seed sequence from which every session and query execution derives
its own independent RNG stream.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from typing import TYPE_CHECKING, Any

from repro.catalog.statistics import StatisticsCatalog
from repro.core.config import BlazeItConfig
from repro.core.context import ExecutionContext
from repro.parallel.cache import SharedDetectionCache, get_process_cache
from repro.core.labeled_set import LabeledSet
from repro.core.recorded import RecordedDetections
from repro.core.results import PlanExplanation, QueryResult
from repro.detection.base import ObjectDetector
from repro.detection.simulated import SimulatedDetector
from repro.errors import ConfigurationError, UnknownVideoError
from repro.index.builder import build_video_index
from repro.index.sketches import DEFAULT_RANGE_SIZE
from repro.index.store import DEFAULT_SEGMENT_FRAMES, PersistentIndex
from repro.index.view import IndexViews
from repro.frameql.analyzer import QuerySpec, analyze
from repro.frameql.parser import parse
from repro.optimizer.base import PhysicalPlan
from repro.optimizer.cost import CostBasedOptimizer
from repro.udf.registry import UDFRegistry, default_udf_registry
from repro.video.scenarios import DEFAULT_SPLIT_FRAMES, generate_scenario
from repro.video.store import VideoStore
from repro.video.synthetic import SyntheticVideo

if TYPE_CHECKING:  # pragma: no cover - circular at runtime (api uses engine)
    from repro.api.hints import QueryHints
    from repro.api.session import QuerySession


def _detector_identity(detector: ObjectDetector) -> tuple[object, ...]:
    """What a cache key folds in of a detector: name, seed, threshold (if any)."""
    seed = getattr(detector, "seed", "")
    return detector.name, seed, getattr(detector, "confidence_threshold", "")


class BlazeIt:
    """Declarative video analytics engine over the synthetic video substrate."""

    def __init__(
        self,
        detector: ObjectDetector | None = None,
        config: BlazeItConfig | None = None,
        udf_registry: UDFRegistry | None = None,
        catalog: StatisticsCatalog | None = None,
        shared_cache: SharedDetectionCache | None = None,
        index_dir: str | Path | None = None,
    ) -> None:
        self.config = config or BlazeItConfig()
        self.default_detector = detector or SimulatedDetector.mask_rcnn()
        self.udf_registry = udf_registry or default_udf_registry()
        self.store = VideoStore()
        # A preloaded catalog (``StatisticsCatalog.load``) lets shard pruning
        # and cost estimates survive across processes; registering videos
        # with labeled sets still refreshes the affected entries.
        self.catalog = catalog if catalog is not None else StatisticsCatalog()
        # The persistent ingest-time index: committed detection segments plus
        # range sketches.  Catalog entries persisted with an index generation
        # are registered immediately (cheap JSON); the expensive shared-cache
        # preload stays behind the explicit :meth:`warm_start`.
        self._index: IndexViews | None = None
        if index_dir is not None:
            self._index = IndexViews(PersistentIndex(Path(index_dir)))
            for index in self._index.store.entries():
                try:
                    stats = index.statistics()
                    if stats is not None and index.video not in self.catalog:
                        self.catalog.register(stats)
                finally:
                    index.close()
        self.optimizer = CostBasedOptimizer(
            self.udf_registry,
            catalog=self.catalog,
            config=self.config,
            store=self.store,
            index=self._index,
        )
        self._detectors: dict[str, ObjectDetector] = {}
        self._labeled_sets: dict[str, LabeledSet] = {}
        self._recorded: dict[str, RecordedDetections] = {}
        # The shared cross-query detection cache: an explicit instance wins
        # (tests, dedicated serving tiers); otherwise the config's byte
        # budget selects the process-wide cache, and 0 disables caching.
        if shared_cache is not None:
            self._shared_cache: SharedDetectionCache | None = shared_cache
        elif self.config.shared_cache_bytes > 0:
            self._shared_cache = get_process_cache(self.config.shared_cache_bytes)
        else:
            self._shared_cache = None
        # Root of the engine's randomness: sessions and query executions spawn
        # independent child streams, so repeated approximate queries draw
        # different samples while a fixed seed keeps whole runs reproducible.
        self._seed_sequence = np.random.SeedSequence(self.config.seed)

    # -- registration -------------------------------------------------------------------

    def register_video(
        self,
        name: str,
        test_video: SyntheticVideo,
        train_video: SyntheticVideo | None = None,
        heldout_video: SyntheticVideo | None = None,
        detector: ObjectDetector | None = None,
        build_labeled_set: bool = True,
    ) -> None:
        """Register a video (and optionally its labeled-set days) under ``name``.

        When ``train_video`` and ``heldout_video`` are given and
        ``build_labeled_set`` is true, the configured detector is run over both
        days offline to build the labeled set (not charged to any query), and
        the statistics catalog gains the per-class statistics the cost-based
        optimizer prices plans with.  A recording of the replaced day is dropped.
        """
        self.store.register(name, test_video)
        self._recorded.pop(name, None)
        if detector is not None:
            self._detectors[name] = detector
        if self._index is not None:
            self._index.cache_keys[name] = self._cache_key_for(name)
        if train_video is not None and heldout_video is not None and build_labeled_set:
            self.attach_labeled_set(
                name, LabeledSet.build(train_video, heldout_video, self.detector_for(name))
            )

    def register_scenario(
        self,
        scenario_name: str,
        name: str | None = None,
        num_frames: int = DEFAULT_SPLIT_FRAMES,
        detector: ObjectDetector | None = None,
    ) -> None:
        """Generate and register one of the built-in scenarios (Table 3).

        Three splits are generated: a training day and a held-out day (which
        become the labeled set) and a test day (the unseen video queries run
        against), each of ``num_frames`` frames.
        """
        name = name or scenario_name
        train = generate_scenario(scenario_name, "train", num_frames)
        heldout = generate_scenario(scenario_name, "heldout", num_frames)
        test = generate_scenario(scenario_name, "test", num_frames)
        self.register_video(
            name,
            test_video=test,
            train_video=train,
            heldout_video=heldout,
            detector=detector,
        )

    def attach_labeled_set(self, name: str, labeled: LabeledSet) -> None:
        """Attach a pre-built labeled set for ``name``.

        Registers the derived per-class statistics with the catalog as well,
        exactly as :meth:`register_video` does when it builds the labeled set
        itself.  Used by harnesses that share one expensive labeled set across
        several engine configurations.
        """
        if name not in self.store:
            raise UnknownVideoError(
                f"register the video {name!r} before attaching its labeled set "
                f"(available: {', '.join(self.videos()) or '<none>'})"
            )
        self._labeled_sets[name] = labeled
        self.catalog.register_from_labeled_set(
            name,
            self.store.get(name).num_frames,
            labeled,
            self.detector_for(name).cost.seconds_per_call,
            training_epochs=self.config.training.epochs,
        )

    def attach_recorded(self, name: str, recorded: RecordedDetections) -> None:
        """Attach a pre-computed detector recording for the test day of ``name``.

        The recording becomes the detector of ``name``'s execution contexts:
        plans that "call the detector" replay it while still charging
        detection cost, which makes repeated benchmark runs cheap in
        wall-clock time without changing any measured quantity.  It must be
        of the registered test day, by the detector identity the cache key
        folds in, or the cascade would publish other frames under that key.
        """
        if recorded.video is not self.store.get(name):
            raise ConfigurationError(f"the recording is not of the test day {name!r}")
        made_by, expected = map(_detector_identity, (recorded.detector, self.detector_for(name)))
        if made_by != expected:
            raise ConfigurationError(f"the recording is by detector {made_by}, not {expected}")
        self._recorded[name] = recorded

    def record_test_day(self, name: str) -> RecordedDetections:
        """Run the detector once over the test day of ``name`` and attach it."""
        recorded = RecordedDetections.build(self.store.get(name), self.detector_for(name))
        self.attach_recorded(name, recorded)
        return recorded

    # -- accessors -----------------------------------------------------------------------

    def detector_for(self, name: str) -> ObjectDetector:
        """The detector configured for a video (falls back to the default)."""
        return self._detectors.get(name, self.default_detector)

    def execution_detector(self, name: str) -> ObjectDetector:
        """The detector an execution context of a video gets (its attached
        recording, else :meth:`detector_for`), without building a context."""
        return self._recorded.get(name) or self.detector_for(name)

    def labeled_set(self, name: str) -> LabeledSet | None:
        """The labeled set for a video, or ``None`` if it was never built."""
        return self._labeled_sets.get(name)

    def videos(self) -> list[str]:
        """Names of all registered videos."""
        return self.store.names()

    # -- sessions ------------------------------------------------------------------------

    def session(
        self, video: str | None = None, hints: QueryHints | None = None
    ) -> QuerySession:
        """Open a query session: prepared statements, shared context, RNG streams.

        ``video`` sets the default video for builder queries without a
        ``from_`` clause; ``hints`` sets the session-wide default hints.
        """
        from repro.api.session import QuerySession

        return QuerySession(self, video=video, hints=hints)

    def _spawn_seed_sequence(self) -> np.random.SeedSequence:
        """A child seed sequence (one per session, or per one-shot context)."""
        return self._seed_sequence.spawn(1)[0]

    # -- planning and execution ----------------------------------------------------------------

    def analyze(self, query_text: str) -> QuerySpec:
        """Parse and semantically analyze a FrameQL query."""
        return analyze(parse(query_text))

    def plan(
        self, query_text: str, hints: QueryHints | None = None
    ) -> tuple[QuerySpec, PhysicalPlan]:
        """Analyze a query and build (but do not run) its physical plan."""
        spec = self.analyze(query_text)
        self.store.get(spec.video)  # an unregistered video fails here
        plan = self.optimizer.plan(spec, hints=hints)
        return spec, plan

    def explain(self, query_text: str, hints: QueryHints | None = None) -> str:
        """One-line description of the plan the optimizer would choose.

        For the structured form (operator tree, detector-call estimate,
        hints), use :meth:`explain_query` or ``session.explain(...)``, which
        return a :class:`~repro.core.results.PlanExplanation`.
        """
        return str(self.explain_query(query_text, hints=hints))

    def explain_query(
        self, query_text: str, hints: QueryHints | None = None
    ) -> PlanExplanation:
        """Structured explanation of the chosen plan.  Opens no session:
        explaining draws nothing from the engine's seed sequence."""
        spec, plan = self.plan(query_text, hints=hints)
        assert plan.decision is not None  # the optimizer records one
        return plan.decision.explanation(
            self.config.parallelism, self.execution_detector(spec.video)
        )

    def shared_cache(self) -> SharedDetectionCache | None:
        """The engine's shared cross-query detection cache (``None`` if off)."""
        return self._shared_cache

    def _cache_key_for(self, video_name: str) -> str:
        """Namespace of one video's frames in the shared detection cache.

        Folds in the detector's identity (name, seed, threshold when
        present), so the same video queried under two detectors never shares
        entries.
        """
        video = self.store.get(video_name)
        return "|".join(
            str(part)
            for part in (
                video_name,
                video.spec.seed,
                *_detector_identity(self.detector_for(video_name)),
            )
        )

    def execution_context(self, video_name: str) -> ExecutionContext:
        """Build the execution context for a registered video.

        Each context receives its own RNG stream derived from the engine's
        root seed sequence, so two contexts never share sample draws.  An
        unregistered video raises :class:`~repro.errors.UnknownVideoError`.
        """
        context = self._unseeded_context(video_name)
        context.rng = np.random.default_rng(self._spawn_seed_sequence())
        return context

    def _unseeded_context(self, video_name: str) -> ExecutionContext:
        """A video's context on the fixed default stream, spawning nothing
        from the engine's seed sequence: for work that draws no randomness."""
        return ExecutionContext(
            video=self.store.get(video_name),
            detector=self.execution_detector(video_name),
            udf_registry=self.udf_registry,
            config=self.config,
            labeled_set=self._labeled_sets.get(video_name),
            shared_cache=self._shared_cache,
            cache_key=self._cache_key_for(video_name),
            index_view=self._index.view(video_name) if self._index is not None else None,
        )

    # -- persistent index ---------------------------------------------------------------

    def build_index(
        self,
        video_name: str,
        *,
        range_size: int = DEFAULT_RANGE_SIZE,
        segment_frames: int = DEFAULT_SEGMENT_FRAMES,
        include_statistics: bool = True,
    ) -> dict[str, Any]:
        """Run the ingest pipeline once and commit a new index generation.

        The build runs the detector over every frame through the ordinary
        charging chokepoints (so existing caches are reused), persists the
        columnar segments, the range sketch and — when available — the
        statistics-catalog entry, and commits atomically: a crash leaves the
        previous generation fully readable.
        """
        if self._index is None:
            raise ConfigurationError(
                "this engine has no index store; construct it with "
                "BlazeIt(index_dir=...) to build or serve persistent indexes"
            )
        # Build from ground truth, not from the previous generation, whose
        # view is closed before the new one is written.  Detection draws no
        # randomness, so the build spawns nothing: building an index moves no
        # later session's draws (invariant I1).
        context = dataclasses.replace(self._unseeded_context(video_name), index_view=None)
        stale = self._index.views.pop(video_name, None)
        if stale is not None:
            stale.close()
        statistics = (
            self.catalog.get(video_name)
            if include_statistics and video_name in self.catalog
            else None
        )
        return build_video_index(
            self._index.store,
            video_name,
            context,
            range_size=range_size,
            segment_frames=segment_frames,
            statistics=statistics,
        )

    def warm_start(self) -> dict[str, Any]:
        """Preload the shared cache and catalog from every committed index.

        After this, a fresh process answers hot queries with zero detector
        calls even for videos whose index view is bypassed (e.g. via
        ``QueryHints(use_index=False)``): every indexed frame sits in the
        shared cross-query cache under its index's cache key.
        """
        report: dict[str, Any] = {
            "enabled": self._index is not None,
            "videos": [],
            "frames_loaded": 0,
            "catalog_entries": 0,
        }
        if self._index is None:
            return report
        for index in self._index.store.entries():
            try:
                stats = index.statistics()
                if stats is not None and index.video not in self.catalog:
                    self.catalog.register(stats)
                    report["catalog_entries"] += 1
                if self._shared_cache is not None:
                    for _segment, batch in index.iter_segments():
                        self._shared_cache.put_many(index.cache_key, batch)
                        report["frames_loaded"] += len(batch)
                report["videos"].append(index.video)
            finally:
                index.close()
        return report

    def index_status(self) -> dict[str, Any]:
        """Store summary plus the generation each attached view serves.

        How many frames the index served or skipped is an execution-ledger
        count (``index_hits`` / ``index_skips``), folded into the metrics
        registry when an execution completes.
        """
        if self._index is None:
            return {"enabled": False}
        status = self._index.store.status()
        status["enabled"] = True
        status["attached"] = {
            name: {"generation": view.index.generation}
            for name, view in sorted(self._index.views.items())
        }
        return status

    def query(
        self,
        query_text: str,
        rng: np.random.Generator | None = None,
        hints: QueryHints | None = None,
    ) -> QueryResult:
        """Optimize and execute a FrameQL query in a throwaway session.

        Compatibility wrapper over :meth:`session`: each call pays the full
        parse/analyze/plan cost.  Workloads that repeat queries should hold a
        session and use ``prepare``/``execute`` instead.
        """
        from repro.api.hints import require_hints

        require_hints(hints)
        return self.session().prepare(query_text, hints=hints).execute(rng=rng)
