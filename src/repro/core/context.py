"""Execution context shared by physical plans.

The context bundles everything a plan needs to run a query over the unseen
("test day") video: the video itself, the labeled set, the configured
detector, an optional recording of the detector's output over the test day
(see :class:`~repro.core.recorded.RecordedDetections`), the UDF registry, the
engine configuration and a seeded random generator.

A context is built per video but may serve many queries: a
:class:`~repro.api.session.QuerySession` caches one context per video so
expensive per-video state (the cheap-feature matrix) is shared, and rebinds
the RNG stream per execution via :meth:`ExecutionContext.bind_rng` so
repeated approximate queries draw independent samples.

It also centralises detector access so every plan charges detection cost the
same way, whether the output comes from a live detector call or from the
recording.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import BlazeItConfig
from repro.core.labeled_set import LabeledSet
from repro.core.recorded import RecordedDetections
from repro.detection.base import (
    DetectionResult,
    ObjectDetector,
    resolve_detection_batch,
)
from repro.errors import SpawnExportError
from repro.metrics.runtime import ExecutionLedger, OperatorCost, RuntimeLedger
from repro.udf.registry import UDFRegistry
from repro.video.synthetic import SyntheticVideo

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a runtime cycle)
    from repro.index.view import IndexView
    from repro.obs.trace import Tracer
    from repro.parallel.cache import SharedDetectionCache
    from repro.parallel.executor import ShardDriver
    from repro.video.synthetic import Track, VideoSpec


@dataclass(frozen=True)
class ContextSpec:
    """Picklable recipe for rebuilding a shard worker's detection context.

    Process shard workers cannot share the driver's :class:`ExecutionContext`
    (it holds threads' worth of unpicklable, driver-only state); instead they
    receive this spec and rebuild exactly what speculative detection needs —
    the video, reconstructed bit-for-bit from its spec and track list, and
    the detector, whose output is deterministic per (detector seed, video
    seed, frame index).  Everything else (ledger, caches, RNG streams,
    recording) stays on the driver, which charges on consumption.
    """

    video_spec: "VideoSpec"
    tracks: "tuple[Track, ...]"
    detector: ObjectDetector

    def build_video(self) -> SyntheticVideo:
        """Rebuild the exact video (works for sliced videos too)."""
        return SyntheticVideo(self.video_spec, list(self.tracks))


def spawn_refusal(
    detector: ObjectDetector, recorded: RecordedDetections | None
) -> str | None:
    """Why a context cannot be exported to process workers (``None``: it can).

    The one exportability probe, shared by :meth:`ExecutionContext.spawn_spec`
    and the optimizer's parallelism verdict: a recording replaces the
    detector as the source of truth and lives only on the driver, and a
    detector that will not pickle cannot be rebuilt in a worker.
    """
    if recorded is not None:
        return (
            "context replays a recorded test day; recordings are "
            "driver-only, so process workers cannot reproduce them"
        )
    try:
        pickle.dumps(detector)
    except Exception as exc:
        return f"detector {detector.name!r} is not picklable: {exc}"
    return None


@dataclass
class ExecutionContext:
    """Everything a physical plan needs to execute one query."""

    video: SyntheticVideo
    detector: ObjectDetector
    udf_registry: UDFRegistry
    config: BlazeItConfig
    labeled_set: LabeledSet | None = None
    recorded: RecordedDetections | None = None
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    #: Process-wide cross-query detection cache (``None`` when disabled):
    #: consulted before the detector is called and before any charge is made.
    shared_cache: "SharedDetectionCache | None" = field(default=None, repr=False)
    #: Namespace of this context's frames in the shared cache (video name
    #: plus detector identity, built by the engine).
    cache_key: str = ""
    #: Persistent-index view for this video (``None`` when no committed index
    #: matches the cache key): serves exact persisted detector output — and
    #: sketch-proven skips — before any detector charge.
    index_view: "IndexView | None" = field(default=None, repr=False)
    #: Span tracer for this execution (``None`` — the default — disables
    #: tracing at true zero overhead; see :mod:`repro.obs.trace`).  Sessions
    #: attach a fresh tracer per traced execution on a private context copy;
    #: shard workers never receive it — their spans ship back over the
    #: executor transport and are stitched in driver-side.
    tracer: "Tracer | None" = field(default=None, repr=False)
    _features_cache: np.ndarray | None = field(default=None, repr=False)
    _prefetcher: "ShardDriver | None" = field(default=None, repr=False)

    def bind_rng(self, rng: np.random.Generator) -> ExecutionContext:
        """Attach the RNG stream for the next execution and return ``self``.

        Sessions call this before every plan execution so each run of a
        (possibly shared) context samples from its own stream.
        """
        self.rng = rng
        return self

    # -- parallel execution hooks ------------------------------------------------------

    def execution_clone(self, rng: np.random.Generator) -> ExecutionContext:
        """A private copy of this context for one (parallel) execution.

        Shares every per-video asset — video, detector, recording, labeled
        set, shared cache and the feature matrix if already computed — but
        owns its RNG binding, so a parallel execution can never contaminate
        the session's cached context while its stream is live.
        """
        return dataclasses.replace(self, rng=rng, _prefetcher=None)

    def shard_context(self) -> ExecutionContext:
        """The context thread shard workers speculate in.

        Workers share the read-only assets (video, detector, recording,
        shared cache) but never the driver's RNG, prefetcher, tracer or
        feature cache.  They draw no randomness — detection is deterministic
        per frame — and their work is uncharged: the driver charges on
        consumption.
        """
        return dataclasses.replace(
            self,
            rng=np.random.default_rng(0),
            tracer=None,
            _prefetcher=None,
            _features_cache=None,
        )

    def with_prefetcher(self, prefetcher: "ShardDriver") -> ExecutionContext:
        """Attach a detection prefetcher (driver side of parallel execution)."""
        self._prefetcher = prefetcher
        return self

    def spawn_spec(self) -> ContextSpec:
        """Export the picklable :class:`ContextSpec` for process shard workers.

        Raises :class:`~repro.errors.SpawnExportError` when
        :func:`spawn_refusal` finds the context cannot cross a process
        boundary.  Routing treats the error as "use threads instead".
        """
        refusal = spawn_refusal(self.detector, self.recorded)
        if refusal is not None:
            raise SpawnExportError(refusal)
        return ContextSpec(
            video_spec=self.video.spec,
            tracks=tuple(self.video.tracks),
            detector=self.detector,
        )

    def announce_access_plan(
        self, frame_order: np.ndarray, monotone: bool = False
    ) -> None:
        """Declare the frame order this execution is about to verify.

        A no-op on sequential executions; under parallel execution this is
        the signal that starts the shard workers prefetching (see
        :meth:`repro.parallel.executor.ShardDriver.announce`).
        Plans call it exactly when their candidate order becomes known — a
        scan range, a sampling permutation, an importance ranking.
        """
        if self._prefetcher is not None:
            self._prefetcher.announce(frame_order, monotone=monotone)

    # -- detector access -----------------------------------------------------------

    def detect(
        self,
        frame_index: int,
        ledger: RuntimeLedger | None = None,
        cost_scale: float = 1.0,
    ) -> DetectionResult:
        """Run (or replay) object detection on one test-day frame.

        ``cost_scale`` reduces the charged cost when a spatial filter has
        cropped the frame.  When ``ledger`` is an
        :class:`~repro.metrics.runtime.ExecutionLedger`, detections computed
        earlier in the same execution are served from its per-frame cache
        without re-calling (or re-charging) the detector; frames present in
        the process-wide shared cache are likewise served — and seeded into
        the execution cache — without any charge.
        """
        execution_ledger = ledger if isinstance(ledger, ExecutionLedger) else None
        if execution_ledger is not None:
            cached = execution_ledger.cached_detection(frame_index)
            if cached is not None:
                execution_ledger.record_cache_hit()
                return cached
        if self.shared_cache is not None:
            shared = self.shared_cache.get(self.cache_key, frame_index)
            if shared is not None:
                if execution_ledger is not None:
                    execution_ledger.stash_detection(frame_index, shared)
                    execution_ledger.record_cache_hit()
                return shared
        if self.index_view is not None:
            indexed = self.index_view.get(frame_index)
            if indexed is not None:
                result, skipped = indexed
                if execution_ledger is not None:
                    execution_ledger.stash_index_detection(
                        frame_index, result, skipped
                    )
                    execution_ledger.record_cache_hit()
                return result
        if ledger is not None:
            ledger.charge(self._scaled_cost(cost_scale))
        result = self._compute_detection(frame_index)
        if execution_ledger is not None:
            execution_ledger.record_detection(frame_index, result)
        if self.shared_cache is not None:
            self.shared_cache.put(self.cache_key, frame_index, result)
        return result

    def detect_batch(
        self,
        frame_indices: np.ndarray | list[int],
        ledger: RuntimeLedger | None = None,
        cost_scale: float = 1.0,
    ) -> list[DetectionResult]:
        """Run (or replay) detection on a batch of frames, charging once.

        The batched counterpart of :meth:`detect`, with identical results and
        identical per-frame accounting: the indices are partitioned into
        cache hits (served from the :class:`ExecutionLedger` detection cache
        and counted as hits), shared-cache hits (seeded into the execution
        cache free of charge) and misses; the misses are computed in one
        vectorized :meth:`~repro.detection.base.ObjectDetector.detect_many`
        call (or read from the recording, or taken from the parallel
        prefetch pipeline), and the ledger is charged with a single
        ``charge(cost, count=misses)``.  Repeated frames within the batch
        are computed once; under an execution ledger the repeats are
        accounted as cache hits, exactly as a sequential ``detect`` loop
        would (the shared semantics live in
        :func:`~repro.detection.base.resolve_detection_batch`).  With
        ``config.batched_execution`` disabled this falls back to that
        sequential scalar loop.
        """
        indices = np.asarray(frame_indices, dtype=np.int64)
        if not self.config.batched_execution:
            return [
                self.detect(int(i), ledger, cost_scale=cost_scale) for i in indices
            ]
        execution_ledger = ledger if isinstance(ledger, ExecutionLedger) else None
        if execution_ledger is not None and self.shared_cache is not None:
            self._seed_shared_hits(indices, execution_ledger)
        if execution_ledger is not None and self.index_view is not None:
            self._seed_index_hits(indices, execution_ledger)

        def compute_misses(miss_frames: list[int]) -> list[DetectionResult]:
            shared: dict[int, DetectionResult] = {}
            if execution_ledger is None and self.shared_cache is not None:
                # With no execution ledger there is no per-execution cache to
                # seed, so shared hits are resolved (uncharged) right here.
                shared = self.shared_cache.get_many(self.cache_key, miss_frames)
            if execution_ledger is None and self.index_view is not None:
                for frame_index in miss_frames:
                    if frame_index in shared:
                        continue
                    indexed = self.index_view.get(frame_index)
                    if indexed is not None:
                        shared[frame_index] = indexed[0]
            charged = [f for f in miss_frames if f not in shared]
            if ledger is not None:
                ledger.charge(self._scaled_cost(cost_scale), len(charged))
            computed = dict(zip(charged, self._compute_batch(charged), strict=True))
            if self.shared_cache is not None and computed:
                self.shared_cache.put_many(self.cache_key, computed)
            computed.update(shared)
            return [computed[f] for f in miss_frames]

        return resolve_detection_batch(indices, execution_ledger, compute_misses)

    def _seed_shared_hits(
        self, indices: np.ndarray, execution_ledger: ExecutionLedger
    ) -> None:
        """Stash shared-cache hits into the execution cache before resolving.

        The resolver then serves them as ordinary (free) cache hits, keeping
        the scalar and batched accounting identical.
        """
        assert self.shared_cache is not None
        unseen = [
            int(f)
            for f in dict.fromkeys(int(i) for i in indices)
            if execution_ledger.cached_detection(int(f)) is None
        ]
        if not unseen:
            return
        for frame_index, result in self.shared_cache.get_many(
            self.cache_key, unseen
        ).items():
            execution_ledger.stash_detection(frame_index, result)

    def _seed_index_hits(
        self, indices: np.ndarray, execution_ledger: ExecutionLedger
    ) -> None:
        """Stash index-served detections into the execution cache.

        The index tier of :meth:`detect_batch`: frames still unseen after the
        shared-cache seeding are served from the persistent index — decoded
        from the memory-mapped segment, or synthesized when the range sketch
        proves the range empty — and the resolver then counts them as free
        cache hits, exactly like the scalar :meth:`detect` path.
        """
        assert self.index_view is not None
        for frame_index in dict.fromkeys(int(i) for i in indices):
            if execution_ledger.cached_detection(frame_index) is not None:
                continue
            indexed = self.index_view.get(frame_index)
            if indexed is not None:
                result, skipped = indexed
                execution_ledger.stash_index_detection(frame_index, result, skipped)

    def _compute_detection(self, frame_index: int) -> DetectionResult:
        """Produce one frame's detections: prefetch, recording, or detector."""
        if self._prefetcher is not None:
            prefetched = self._prefetcher.take(frame_index)
            if prefetched is not None:
                return prefetched
        if self.recorded is not None:
            return self.recorded.result(frame_index)
        return self.detector.detect(self.video, frame_index)

    def _compute_batch(self, miss_frames: list[int]) -> list[DetectionResult]:
        """Batch counterpart of :meth:`_compute_detection` (same sources)."""
        if not miss_frames:
            return []
        prefetched: dict[int, DetectionResult] = {}
        if self._prefetcher is not None:
            prefetched = self._prefetcher.take_many(miss_frames)
        remaining = [f for f in miss_frames if f not in prefetched]
        if remaining:
            if self.recorded is not None:
                computed = {f: self.recorded.result(f) for f in remaining}
            else:
                computed = dict(
                    zip(remaining, self.detector.detect_many(self.video, remaining), strict=True)
                )
            prefetched.update(computed)
        return [prefetched[f] for f in miss_frames]

    def speculate_batch(self, frames: list[int]) -> list[DetectionResult]:
        """Uncharged detections for one chunk of a thread shard worker.

        Workers *read* the shared cross-query cache (frames a previous query
        already paid for cost nothing to prefetch) but never write it, and
        never charge: the driver charges — and populates the cache — when,
        and only when, a prefetched frame is consumed, so an execution's own
        speculative work can never masquerade as a cross-query hit and
        parallel accounting stays identical to sequential.
        """
        hits: dict[int, DetectionResult] = {}
        if self.shared_cache is not None:
            hits = self.shared_cache.get_many(self.cache_key, frames)
        misses = [f for f in frames if f not in hits]
        hits.update(zip(misses, self._compute_batch(misses), strict=True))
        return [hits[f] for f in frames]

    def _scaled_cost(self, cost_scale: float) -> OperatorCost:
        """The detector's per-call cost, reduced by a spatial-crop scale."""
        cost = self.detector.cost
        if cost_scale == 1.0:
            return cost
        return OperatorCost(
            name=cost.name, seconds_per_call=cost.seconds_per_call * cost_scale
        )

    def detect_counts(
        self,
        frame_indices: np.ndarray,
        object_class: str,
        ledger: RuntimeLedger | None = None,
    ) -> np.ndarray:
        """Detected counts of one class at the given frames, charging per call.

        Scalar reference loop; the plans use :meth:`detect_counts_batch`.
        """
        indices = np.asarray(frame_indices, dtype=np.int64)
        counts = np.empty(indices.shape[0], dtype=np.float64)
        for row, frame_index in enumerate(indices):
            result = self.detect(int(frame_index), ledger)
            counts[row] = result.count(object_class)
        return counts

    def detect_counts_batch(
        self,
        frame_indices: np.ndarray,
        object_class: str,
        ledger: RuntimeLedger | None = None,
    ) -> np.ndarray:
        """Detected counts of one class over a batch, via :meth:`detect_batch`.

        With a persistent index attached, frames whose covering sketch range
        provably contains zero instances of ``object_class`` are answered
        ``0.0`` directly — no segment decode, no detector call (invariant I7:
        the sketch is exact, so the skip cannot change the count).  Frames
        already in the execution cache keep their normal cache-hit accounting
        by routing through :meth:`detect_batch`.
        """
        if self.index_view is None:
            results = self.detect_batch(frame_indices, ledger)
            return np.array(
                [result.count(object_class) for result in results], dtype=np.float64
            )
        indices = np.asarray(frame_indices, dtype=np.int64)
        execution_ledger = ledger if isinstance(ledger, ExecutionLedger) else None
        counts = np.zeros(indices.shape[0], dtype=np.float64)
        needed_rows: list[int] = []
        needed_frames: list[int] = []
        skipped = 0
        for row, frame_index in enumerate(indices):
            frame = int(frame_index)
            already_cached = (
                execution_ledger is not None
                and execution_ledger.cached_detection(frame) is not None
            )
            if not already_cached and self.index_view.class_count_zero(
                frame, object_class
            ):
                skipped += 1
                continue
            needed_rows.append(row)
            needed_frames.append(frame)
        if skipped and execution_ledger is not None:
            execution_ledger.record_index_skip(skipped)
        if needed_frames:
            results = self.detect_batch(
                np.asarray(needed_frames, dtype=np.int64), ledger
            )
            for row, result in zip(needed_rows, results, strict=True):
                counts[row] = result.count(object_class)
        return counts

    def satisfies_min_counts(
        self,
        frame_index: int,
        min_counts: dict[str, int],
        ledger: RuntimeLedger | None = None,
    ) -> bool:
        """Whether one frame satisfies a count conjunction, charging one call.

        With a persistent index attached, a frame whose sketch range proves
        the conjunction unsatisfiable (some class's per-frame maximum in the
        range is below its minimum) is rejected without any decode or charge.
        """
        if self.index_view is not None:
            execution_ledger = (
                ledger if isinstance(ledger, ExecutionLedger) else None
            )
            already_cached = (
                execution_ledger is not None
                and execution_ledger.cached_detection(frame_index) is not None
            )
            if not already_cached and self.index_view.fails_min_counts(
                frame_index, min_counts
            ):
                if execution_ledger is not None:
                    execution_ledger.record_index_skip()
                return False
        result = self.detect(frame_index, ledger)
        return all(
            result.count(object_class) >= min_count
            for object_class, min_count in min_counts.items()
        )

    # -- cheap features ---------------------------------------------------------------

    def test_features(self, frame_indices: np.ndarray | None = None) -> np.ndarray:
        """Cheap per-frame features of the test day.

        The full-feature matrix is cached because several plans (specialized
        rewriting, control variates, scrubbing) all need it.  Feature
        extraction cost is folded into the specialized-NN inference cost, so
        no separate charge is made here.
        """
        if frame_indices is not None:
            return self.video.frame_features(np.asarray(frame_indices, dtype=np.int64))
        if self._features_cache is None:
            self._features_cache = self.video.frame_features(
                np.arange(self.video.num_frames)
            )
        return self._features_cache

    # -- labeled-set conveniences ---------------------------------------------------------

    def require_labeled_set(self) -> LabeledSet:
        """The labeled set, raising a clear error when it was never built."""
        if self.labeled_set is None:
            raise RuntimeError(
                "this query plan needs a labeled set; call "
                "BlazeIt.build_labeled_set() (or register the video with "
                "train/heldout splits) first"
            )
        return self.labeled_set
