"""Execution context shared by physical plans.

The context bundles everything a plan needs to run a query over the unseen
("test day") video: the video itself, the labeled set, the detector (live,
or a recording of its output over the test day: see
:class:`~repro.core.recorded.RecordedDetections`, which is a detector), the
UDF registry, the engine configuration and a seeded random generator.

A context is built per video but may serve many queries: a
:class:`~repro.api.session.QuerySession` caches one context per video and
runs every execution on its own shallow copy of it, carrying that
execution's RNG stream and tracer, so repeated approximate queries draw
independent samples and the cached context is never written to.  Per-video
state (the cheap-feature matrix) lives on the video itself and is shared by
every copy.

It also centralises detector access so every plan charges detection cost the
same way, through one source cascade whose last tier is the detector.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import BlazeItConfig
from repro.core.labeled_set import LabeledSet
from repro.detection.base import DetectionResult, ObjectDetector
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
    seed, frame index).  Everything else (ledger, caches, RNG streams) stays
    on the driver, which charges on consumption.
    """

    video_spec: "VideoSpec"
    tracks: "tuple[Track, ...]"
    detector: ObjectDetector

    def build_video(self) -> SyntheticVideo:
        """Rebuild the exact video (works for sliced videos too)."""
        return SyntheticVideo(self.video_spec, list(self.tracks))

    def speculator(self) -> Callable[[list[int]], list[DetectionResult]]:
        """The worker's detection over the rebuilt video, uncharged.

        Speculative prefetch is intentionally uncharged: the driver charges
        the ledger when (and only when) a prefetched frame is consumed,
        keeping parallel accounting identical to sequential.
        """
        video = self.build_video()
        detector = self.detector
        return lambda frames: detector.detect_many(video, frames)


def spawn_refusal(detector: ObjectDetector) -> str | None:
    """Why a context cannot be exported to process workers (``None``: it can).

    The one exportability probe, shared by :meth:`ExecutionContext.spawn_spec`
    and the optimizer's parallelism verdict: a detector that will not pickle
    cannot be rebuilt in a worker.  A recorded test day is such a detector:
    recordings refuse to pickle, because they live only on the driver.
    """
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
    _prefetcher: "ShardDriver | None" = field(default=None, repr=False)

    # -- parallel execution hooks ------------------------------------------------------

    def shard_context(self) -> ExecutionContext:
        """The context thread shard workers speculate in.

        Workers share the read-only assets (video, detector, shared cache)
        but never the driver's RNG, prefetcher or tracer.  They draw no
        randomness (detection is deterministic per frame) and their work is
        uncharged: the driver charges on consumption.
        """
        return dataclasses.replace(
            self, rng=np.random.default_rng(0), tracer=None, _prefetcher=None
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
        refusal = spawn_refusal(self.detector)
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

        Frames an earlier tier of the cascade will serve are never announced
        to a later one: the index answers every frame it covers before the
        prefetcher is consulted, so those frames are dropped here, and when
        none are left no worker is started at all.
        """
        if self._prefetcher is None:
            return
        order = np.asarray(frame_order, dtype=np.int64)
        if self.index_view is not None:
            order = order[order >= self.index_view.num_frames]
            if order.size == 0:
                return
        self._prefetcher.announce(order, monotone=monotone)

    # -- detector access -----------------------------------------------------------

    def detect_batch(
        self,
        frame_indices: np.ndarray | list[int],
        ledger: RuntimeLedger | None = None,
        cost_scale: float = 1.0,
    ) -> list[DetectionResult]:
        """Run (or replay) detection on a batch of frames, charging once.

        The charged walk of the source cascade (:meth:`_walk_sources`):
        frames no free tier serves are charged with a single
        ``charge(cost, count=misses)`` — ``cost_scale`` reduces the cost when
        a spatial filter has cropped the frame — and published to the shared
        cross-query cache.  Results come back in input order.
        """
        return self._walk_sources(frame_indices, ledger, cost_scale, charged=True)

    def speculate_batch(self, frames: list[int]) -> list[DetectionResult]:
        """Uncharged detections for one chunk of a thread shard worker.

        The same walk as :meth:`detect_batch`, uncharged: workers *read* the
        shared cross-query cache (frames a previous query already paid for
        cost nothing to prefetch) but never write it, never touch a ledger
        and never charge.  The driver charges — and populates the cache —
        when, and only when, a prefetched frame is consumed, so an
        execution's own speculative work can never masquerade as a
        cross-query hit and parallel accounting stays identical to
        sequential.
        """
        return self._walk_sources(frames, None, 1.0, charged=False)

    def _walk_sources(
        self,
        frame_indices: np.ndarray | list[int],
        ledger: RuntimeLedger | None,
        cost_scale: float,
        charged: bool,
    ) -> list[DetectionResult]:
        """The one detection read path: where a frame's detections come from,
        in which order, and who is charged.

        Sources are consulted in a fixed order and a frame stops at the first
        one that has it: the per-execution cache of an
        :class:`ExecutionLedger` (in-batch repeats count as hits of it) →
        the shared cross-query cache → the persistent index → *one charge for
        everything still left* → the parallel prefetcher → the detector (a
        recorded test day is a detector, so it replays here).  A free tier
        may serve only what is provably what the detector would have
        returned, so a hit is seeded into the execution cache under its own
        counter and never charged.
        """
        order: list[int] = np.asarray(frame_indices, dtype=np.int64).tolist()
        execution_ledger = ledger if isinstance(ledger, ExecutionLedger) else None
        served: dict[int, DetectionResult] = {}
        # ``left`` is what no source has answered yet: distinct frames, in
        # first-occurrence order.
        left: list[int] = []
        for frame in dict.fromkeys(order):
            cached = (
                None
                if execution_ledger is None
                else execution_ledger.cached_detection(frame)
            )
            if cached is None:
                left.append(frame)
            else:
                served[frame] = cached
        if left and self.shared_cache is not None:
            shared = self.shared_cache.get_many(self.cache_key, left)
            if execution_ledger is not None and shared:
                execution_ledger.stash_detections(shared)
            served.update(shared)
            left = [frame for frame in left if frame not in shared]
        if left and self.index_view is not None:
            indexed = self.index_view.get(left)
            for frame, (result, _) in indexed.items():
                served[frame] = result
            if execution_ledger is not None and indexed:
                execution_ledger.stash_index_detections(indexed)
            left = [frame for frame in left if frame not in indexed]
        if left:
            # Everything still left costs a detector call, whoever computes it.
            if charged and ledger is not None:
                ledger.charge(self._scaled_cost(cost_scale), len(left))
            computed: dict[int, DetectionResult] = {}
            if self._prefetcher is not None:
                computed = self._prefetcher.take_many(left)
            remaining = [frame for frame in left if frame not in computed]
            if remaining:
                fresh = self.detector.detect_many(self.video, remaining)
                computed.update(zip(remaining, fresh, strict=True))
            if execution_ledger is not None:
                execution_ledger.record_detections({frame: computed[frame] for frame in left})
            if charged and self.shared_cache is not None:
                self.shared_cache.put_many(self.cache_key, computed)
            served.update(computed)
        if execution_ledger is not None:
            # Every occurrence that did not cost a detector call came out of
            # the execution cache: earlier batches, seeded tiers, repeats.
            if len(order) > len(left):
                execution_ledger.record_cache_hit(len(order) - len(left))
        return [served[frame] for frame in order]

    def _scaled_cost(self, cost_scale: float) -> OperatorCost:
        """The detector's per-call cost, reduced by a spatial-crop scale."""
        cost = self.detector.cost
        if cost_scale == 1.0:
            return cost
        return OperatorCost(
            name=cost.name, seconds_per_call=cost.seconds_per_call * cost_scale
        )

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
        frames: list[int] = np.asarray(frame_indices, dtype=np.int64).tolist()
        counts = np.zeros(len(frames), dtype=np.float64)
        needed = list(range(len(frames)))
        if self.index_view is not None:
            execution_ledger = ledger if isinstance(ledger, ExecutionLedger) else None
            absent = self.index_view.class_count_zero(frames, object_class).tolist()
            needed = [
                row
                for row, frame in enumerate(frames)
                if not absent[row]
                or (
                    execution_ledger is not None
                    and execution_ledger.cached_detection(frame) is not None
                )
            ]
            if execution_ledger is not None and len(needed) < len(frames):
                execution_ledger.record_index_skip(len(frames) - len(needed))
        if needed:
            results = self.detect_batch([frames[row] for row in needed], ledger)
            for row, result in zip(needed, results, strict=True):
                counts[row] = result.count(object_class)
        return counts

    # -- cheap features ---------------------------------------------------------------

    def test_features(self, frame_indices: np.ndarray | None = None) -> np.ndarray:
        """Cheap per-frame features of the test day.

        The full matrix is the video's own read-only memo
        (:meth:`~repro.video.synthetic.SyntheticVideo.all_features`), shared
        by every plan that needs it (specialized rewriting, control
        variates, scrubbing).  Feature extraction cost is folded into the
        specialized-NN inference cost, so no separate charge is made here.
        """
        if frame_indices is not None:
            return self.video.frame_features(np.asarray(frame_indices, dtype=np.int64))
        return self.video.all_features()

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
