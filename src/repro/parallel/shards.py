"""Frame-range sharding with statistics-driven density ordering.

A :class:`VideoSharder` partitions a video's frame range into contiguous
shards — the unit of parallel execution — and annotates each with an
estimated hit density for the running query, computed from the statistics
catalog's held-out counts mapped onto the shard's position in the video
(NeedleTail's density/locality idea applied to BlazeIt's frame ranges).

Two things follow from the estimates, neither of which can affect
correctness (statistics steer scheduling, never results):

* shards whose estimated rate is exactly zero for the query's classes are
  marked *pruned*: their workers start lazily, only if the driving plan ever
  actually asks for one of their frames — a scrubbing query satisfied from
  the dense shards never decodes a provably-cold region;
* the remaining shards carry a scheduling order (densest first), so when
  workers are scarce the regions most likely to satisfy a LIMIT query are
  prefetched first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import VideoStatistics
    from repro.index.sketches import RangeSketch

#: Hard cap on the number of shards (and therefore worker threads) one
#: execution may spawn, whatever parallelism was requested.
MAX_SHARDS = 64


@dataclass(frozen=True)
class Shard:
    """One contiguous frame range ``[start, end)`` of the video."""

    shard_id: int
    start: int
    end: int
    #: Estimated fraction of this shard's frames satisfying the query's
    #: class predicate (1.0 when no statistics or no predicate applied).
    estimated_rate: float = 1.0
    #: Statically estimated empty for the query's classes: worker starts
    #: lazily, only when the plan actually touches the shard.
    pruned: bool = False

    @property
    def num_frames(self) -> int:
        return self.end - self.start

    def describe(self) -> str:
        mark = " pruned" if self.pruned else ""
        return (
            f"shard {self.shard_id} [{self.start}, {self.end}) "
            f"rate~{self.estimated_rate:.4f}{mark}"
        )


@dataclass(frozen=True)
class ShardPlan:
    """The full partition of one video for one query execution."""

    shards: tuple[Shard, ...]
    num_frames: int

    def __len__(self) -> int:
        return len(self.shards)

    def owner_of(self, frame_index: int) -> Shard:
        """The shard whose range contains ``frame_index``."""
        if not 0 <= frame_index < self.num_frames:
            raise IndexError(
                f"frame {frame_index} outside video of {self.num_frames} frames"
            )
        shard_id = int(self.owners_of(np.asarray([frame_index], dtype=np.int64))[0])
        return self.shards[shard_id]

    def owners_of(self, frame_indices: np.ndarray) -> np.ndarray:
        """Vectorized shard ids for an array of frame indices.

        The single home of the ownership arithmetic: shards are equal-width
        except for a one-frame remainder spread over the leading shards, so
        ownership is closed-form.  Both :meth:`owner_of` and the prefetch
        executor's worklist split route through here.
        """
        k = len(self.shards)
        base, extra = divmod(self.num_frames, k)
        wide_span = (base + 1) * extra  # frames covered by the widened shards
        indices = np.asarray(frame_indices, dtype=np.int64)
        return np.where(
            indices < wide_span,
            indices // (base + 1),
            extra + (indices - wide_span) // max(1, base),
        )

    def scheduling_order(self) -> list[Shard]:
        """Shards in worker start order: unpruned densest-first, pruned last."""
        return sorted(
            self.shards,
            key=lambda s: (s.pruned, -s.estimated_rate, s.shard_id),
        )

    def describe(self) -> str:
        return "; ".join(s.describe() for s in self.shards)


class VideoSharder:
    """Partition a frame range into density-annotated contiguous shards."""

    def __init__(self, max_shards: int = MAX_SHARDS) -> None:
        if max_shards < 1:
            raise ConfigurationError(f"max_shards must be >= 1, got {max_shards}")
        self.max_shards = max_shards

    def shard(
        self,
        num_frames: int,
        parallelism: int,
        stats: "VideoStatistics | None" = None,
        min_counts: Mapping[str, int] | None = None,
        object_class: str | None = None,
        sketch: "RangeSketch | None" = None,
    ) -> ShardPlan:
        """Split ``[0, num_frames)`` into up to ``parallelism`` shards.

        ``min_counts`` (scrubbing conjunctions) or ``object_class``
        (aggregate/selection predicates) select which per-shard rate is
        computed; with neither — or with no rate source — every shard gets
        rate 1.0 and nothing is pruned.

        Rates come from the persistent index's range ``sketch`` when one is
        attached: exact upper bounds over the *test-day* frames themselves,
        not the catalog's proportional mapping of held-out counts onto shard
        positions (which mislocates events whenever the held-out day's
        timeline differs from the test day's).  A sketch rate of zero is a
        proof of emptiness, so sketch-pruned shards need no ``stats``
        corroboration.
        """
        if num_frames < 1:
            raise ConfigurationError(f"num_frames must be >= 1, got {num_frames}")
        if parallelism < 1:
            raise ConfigurationError(f"parallelism must be >= 1, got {parallelism}")
        k = max(1, min(parallelism, num_frames, self.max_shards))
        base, extra = divmod(num_frames, k)
        shards: list[Shard] = []
        start = 0
        for shard_id in range(k):
            end = start + base + (1 if shard_id < extra else 0)
            rate = self._estimate_rate(
                stats, start, end, min_counts, object_class, sketch
            )
            shards.append(
                Shard(
                    shard_id=shard_id,
                    start=start,
                    end=end,
                    estimated_rate=rate,
                    # Pruning needs an actual claim about the data: a zero
                    # upper bound from the index sketch (a proof), or a zero
                    # rate computed from real held-out counts — never the
                    # 1.0 fallback of "no rate source available".
                    pruned=(
                        rate == 0.0
                        and (sketch is not None or stats is not None)
                        and bool(min_counts or object_class)
                    ),
                )
            )
            start = end
        return ShardPlan(shards=tuple(shards), num_frames=num_frames)

    def _estimate_rate(
        self,
        stats: "VideoStatistics | None",
        start: int,
        end: int,
        min_counts: Mapping[str, int] | None,
        object_class: str | None,
        sketch: "RangeSketch | None" = None,
    ) -> float:
        if sketch is not None:
            if min_counts:
                return sketch.range_event_rate(dict(min_counts), start, end)
            if object_class is not None:
                return sketch.range_presence_rate(object_class, start, end)
            return 1.0
        if stats is None:
            return 1.0
        if min_counts:
            return stats.range_event_rate(dict(min_counts), start, end)
        if object_class is not None:
            return stats.range_presence_rate(object_class, start, end)
        return 1.0
