"""Parallel stream driver: shard the video, prefetch, merge event streams.

:func:`parallel_events` is what :meth:`repro.api.session.PreparedQuery.stream`
routes through when the effective parallelism exceeds one.  It leaves the
physical plan's logic untouched — the plan streams on the driver thread with
its usual control and ledger — and surrounds it with the sharded prefetch
pipeline:

1. a :class:`~repro.parallel.shards.VideoSharder` partitions the video using
   the statistics catalog's per-shard event rates for the query's classes
   (pruned shards start lazily, dense shards first);
2. a :class:`~repro.parallel.executor.ShardDriver` (thread or process
   transport) runs one worker per shard, speculating in the plan's announced
   order;
3. a :class:`StreamMerger` interleaves the workers'
   :class:`~repro.core.events.ShardProgress` events with the plan's own
   stream, shuts the pool down the moment the terminal ``Completed`` event
   appears (a LIMIT satisfied across shards stops every worker), and
   propagates ``close()`` to in-flight workers promptly.

Because all charging happens on the driver as it consumes prefetched
detections, a parallel execution's result — estimate, records, hit set and
ledger counts — is bit-for-bit the sequential one under the same RNG stream;
speculative work a worker computed but the plan never consumed costs
wall-clock only.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING

from repro.core.events import Completed, ExecutionControl, ExecutionEvent
from repro.errors import ConfigurationError, SpawnExportError
from repro.obs.metrics import get_registry
from repro.frameql.analyzer import (
    AggregateQuerySpec,
    ScrubbingQuerySpec,
    SelectionQuerySpec,
)
from repro.parallel.executor import DetectionPrefetcher, ShardDriver
from repro.parallel.process_executor import ProcessShardExecutor
from repro.parallel.shards import ShardPlan, VideoSharder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import VideoStatistics
    from repro.core.context import ExecutionContext
    from repro.optimizer.base import PhysicalPlan


def query_profile(
    plan: "PhysicalPlan",
) -> tuple[Mapping[str, int] | None, str | None]:
    """The (min_counts, object_class) the sharder estimates densities for."""
    spec = getattr(plan, "spec", None)
    if isinstance(spec, ScrubbingQuerySpec):
        return spec.min_counts, None
    if isinstance(spec, (AggregateQuerySpec, SelectionQuerySpec)):
        return None, spec.object_class
    return None, None


class StreamMerger:
    """Interleave a plan's event stream with its shard workers' progress.

    Iterating yields the plan's events in order, with any
    :class:`~repro.core.events.ShardProgress` the workers produced since the
    last plan event injected first (worker-arrival order).  The terminal
    ``Completed`` stays terminal: the pool is shut down, the workers' spans
    and counters folded in and the last progress drained *before* it is
    yielded.  Closing the merger closes the plan's generator and joins every
    worker, so no detector call survives a ``close()``.
    """

    def __init__(
        self,
        inner: Iterator[ExecutionEvent],
        prefetcher: ShardDriver,
        context: "ExecutionContext",
    ) -> None:
        self._inner = inner
        self._prefetcher = prefetcher
        self._context = context

    def events(self) -> Iterator[ExecutionEvent]:
        prefetcher = self._prefetcher
        try:
            for event in self._inner:
                if isinstance(event, Completed):
                    # The LIMIT/CI/budget decision has been made across all
                    # shards: stop the workers before handing out the result.
                    prefetcher.shutdown()
                    self._finalize()
                progress = prefetcher.progress_events
                while progress:
                    yield progress.popleft()
                yield event
        finally:
            closer = getattr(self._inner, "close", None)
            if closer is not None:
                closer()
            prefetcher.shutdown()

    def _finalize(self) -> None:
        """Once per run, after shutdown (every worker has reported): stitch
        worker spans into the driver's trace (ids derive from shard ids,
        identical across transports) and fold the shard counters into the
        metrics registry.
        """
        prefetcher = self._prefetcher
        if self._context.tracer is not None:
            self._context.tracer.attach_worker_spans(prefetcher.worker_spans())
        registry = get_registry()
        shards = prefetcher.shard_plan.shards
        # The transport that ran, not the one requested: an unexportable
        # context asked for processes and got threads.
        labels = {"backend": prefetcher.backend}
        registry.inc(
            "repro_shards_total",
            len(shards),
            labels,
            help="Shards planned by parallel executions.",
        )
        registry.inc(
            "repro_shards_pruned_total",
            sum(1 for shard in shards if shard.pruned),
            labels,
            help="Shards whose workers start lazily (sketch-pruned).",
        )
        registry.inc(
            "repro_frames_prefetched_total",
            prefetcher.frames_prefetched,
            labels,
            help="Frames computed speculatively by shard workers.",
        )


#: Backends a parallel execution can run on.
BACKENDS = ("threads", "processes")


def parallel_events(
    plan: "PhysicalPlan",
    context: "ExecutionContext",
    control: ExecutionControl,
    parallelism: int,
    stats: "VideoStatistics | None" = None,
    backend: str = "threads",
) -> Iterator[ExecutionEvent]:
    """Run ``plan`` with sharded parallel prefetch; yields the merged stream.

    ``context`` must be private to this execution (the session copies its
    cached per-video context for every execution): the prefetcher is
    attached to it.

    ``backend`` selects the transport: ``"threads"`` (the default; right
    whenever the detector releases the GIL during its latency) or
    ``"processes"`` (shared-memory columnar transport; right for GIL-bound
    detectors).  A context that cannot be exported to worker processes — an
    unpicklable detector, a recorded test day — silently falls back to
    threads, which is always semantically equivalent.
    """
    if parallelism < 2:
        raise ConfigurationError(
            f"parallel_events needs parallelism >= 2, got {parallelism}"
        )
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown parallel backend {backend!r}; expected one of {BACKENDS}"
        )
    min_counts, object_class = query_profile(plan)
    index_view = context.index_view
    shard_plan = VideoSharder().shard(
        num_frames=context.video.num_frames,
        parallelism=parallelism,
        stats=stats,
        min_counts=min_counts,
        object_class=object_class,
        # Persisted evidence beats the held-out approximation: with an index
        # attached, per-shard rates are exact upper bounds over the test-day
        # frames themselves (rate 0 is a proof of emptiness).
        sketch=index_view.sketch if index_view is not None else None,
    )
    prefetcher = _build_executor(shard_plan, context, control, backend)
    driver_context = context.with_prefetcher(prefetcher)
    return StreamMerger(plan.run(driver_context, control), prefetcher, context).events()


def _build_executor(
    shard_plan: ShardPlan,
    context: "ExecutionContext",
    control: ExecutionControl,
    backend: str,
) -> ShardDriver:
    """The shard driver over the transport for one backend."""
    if backend == "processes":
        try:
            context_spec = context.spawn_spec()
        except SpawnExportError:
            pass  # fall through to the thread backend
        else:
            return ProcessShardExecutor(
                shard_plan=shard_plan,
                context_spec=context_spec,
                external_cancel=control.cancellation,
                chunk_size=control.batch_size,
            )

    return DetectionPrefetcher(
        shard_plan=shard_plan,
        context=context,
        external_cancel=control.cancellation,
        chunk_size=control.batch_size,
    )


__all__ = [
    "BACKENDS",
    "StreamMerger",
    "parallel_events",
    "query_profile",
    "ShardPlan",
]
