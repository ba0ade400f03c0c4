"""Parallel sharded execution: one driver protocol, two transports.

The plan runs unchanged on the driver thread; the parallel layer never
changes *which* frames are charged, only when they are computed.

* :mod:`repro.parallel.shards` — :class:`VideoSharder` partitions a video's
  frame range into contiguous shards, annotated with per-shard event-rate
  estimates from the statistics catalog (dense shards scheduled first,
  provably-cold shards started lazily).
* :mod:`repro.parallel.executor` — :class:`ShardDriver` is the driver
  protocol, written once: per-shard window state, ``announce`` (first wins,
  split by owner, density-ordered start), ``take``/``take_many`` (block until
  the owning worker catches up; ``None`` means the caller computes inline
  with normal charging), cancellation, ``ShardProgress`` emission,
  ``frames_prefetched`` and worker spans.  Every worker, on either transport,
  runs the same loop (:func:`~repro.parallel.executor.run_shard_worker`).
* A *transport* is a :class:`ShardDriver` subclass that must provide five
  things and nothing else: start a worker, receive its next message (a chunk
  of results with the worker's cumulative ``computed``, or the final message
  with its span payload), report worker liveness, join it, and release what
  it held — plus its window policy.  :class:`DetectionPrefetcher` (threads;
  an in-process queue whose bound a monotone scan lifts) and
  :class:`~repro.parallel.process_executor.ProcessShardExecutor` (spawned
  processes; a shared-memory slot ring that *is* the window, so it cannot)
  are the two.  A transport may **not** charge a ledger, write the shared
  cache, or touch the tracer: workers speculate, the driver alone accounts.
* :mod:`repro.parallel.cache` — :class:`SharedDetectionCache`, the
  process-wide thread-safe LRU that lets repeated queries over hot videos
  skip detector calls entirely (``BlazeItConfig.shared_cache_bytes``).

Entry point: :func:`repro.parallel.plan.parallel_events`, routed to by
``QuerySession.stream()`` whenever ``QueryHints.parallelism`` (or the engine
config's ``parallelism``) exceeds one.
"""

from repro.parallel.cache import (
    DEFAULT_CACHE_BYTES,
    SharedCacheStats,
    SharedDetectionCache,
    get_process_cache,
    reset_process_cache,
)
from repro.parallel.executor import DetectionPrefetcher, ShardDriver
from repro.parallel.plan import StreamMerger, parallel_events
from repro.parallel.shards import MAX_SHARDS, Shard, ShardPlan, VideoSharder

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "MAX_SHARDS",
    "DetectionPrefetcher",
    "Shard",
    "ShardDriver",
    "ShardPlan",
    "SharedCacheStats",
    "SharedDetectionCache",
    "StreamMerger",
    "VideoSharder",
    "get_process_cache",
    "parallel_events",
    "reset_process_cache",
]
