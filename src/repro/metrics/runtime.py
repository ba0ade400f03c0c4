"""Simulated runtime accounting.

The paper measures end-to-end runtime on a Tesla P100 and, for the most
detection-heavy experiments, *extrapolates* runtime from the number of object
detection calls (Sections 10.2 and 10.4).  This reproduction has no GPU, so we
adopt the same accounting model everywhere: every operator invocation charges
a deterministic cost (in simulated seconds) to a :class:`RuntimeLedger`.

The default per-operator throughputs are the ones the paper reports:

* Mask R-CNN object detection: ~3 fps
* FGFA object detection: ~3 fps (the paper groups it with Mask R-CNN)
* YOLOv2: ~80 fps
* specialized NNs: ~10,000 fps
* simple (non-NN) filters: ~100,000 fps

Only *relative* runtimes (speedup factors, crossover points) are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, ClassVar, Protocol

import numpy as np

from repro.sync import Guarded
from repro.wire import Tagged

if TYPE_CHECKING:  # pragma: no cover - typing only (metrics must not import detection)
    from repro.detection.columnar import DetectionBatch


@dataclass(frozen=True)
class OperatorCost:
    """Cost of a single operator invocation.

    Parameters
    ----------
    name:
        Operator identifier used for ledger break-downs (e.g. ``"mask_rcnn"``).
    seconds_per_call:
        Simulated seconds charged for each invocation.
    """

    name: str
    seconds_per_call: float

    @classmethod
    def from_fps(cls, name: str, fps: float) -> "OperatorCost":
        """Build a cost from a throughput expressed in frames per second."""
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        return cls(name=name, seconds_per_call=1.0 / fps)


class StandardCosts:
    """The operator throughputs reported by the paper (Section 5 and 9)."""

    MASK_RCNN = OperatorCost.from_fps("mask_rcnn", 3.0)
    FGFA = OperatorCost.from_fps("fgfa", 3.0)
    YOLOV2 = OperatorCost.from_fps("yolov2", 80.0)
    SPECIALIZED_NN = OperatorCost.from_fps("specialized_nn", 10_000.0)
    SPECIALIZED_NN_TRAIN = OperatorCost.from_fps("specialized_nn_train", 2_500.0)
    SIMPLE_FILTER = OperatorCost.from_fps("simple_filter", 100_000.0)
    VIDEO_DECODE = OperatorCost.from_fps("video_decode", 300.0)

    @classmethod
    def all_costs(cls) -> dict[str, OperatorCost]:
        """Return every standard cost keyed by operator name."""
        costs = {}
        for attr in dir(cls):
            value = getattr(cls, attr)
            if isinstance(value, OperatorCost):
                costs[value.name] = value
        return costs


class _GuardSlot:
    """Keeps a ledger's guard in a slot, outside the instance dict it guards.

    As a dataclass field the guard would live in that dict and point back at
    it: a reference cycle that keeps every dropped ledger's dict (detection
    cache included) alive until the cyclic collector runs, which cost
    3.5 MB of peak RSS on the ``index_served`` benchmark workload.
    """

    __slots__ = ("_fields",)
    _fields: Guarded[dict[str, Any]]


@dataclass(frozen=True)
class RuntimeLedger(Tagged, _GuardSlot):
    """Accumulates simulated runtime, broken down by operator.

    The ledger is the single source of truth for "how long did this query
    take" in the reproduction.  Operators call :meth:`charge` once per frame
    they process; benchmark harnesses read :attr:`total_seconds` and
    :meth:`breakdown`.

    Mutation is thread-safe by construction: the dataclass is frozen, so a
    field assigned from outside raises ``FrozenInstanceError``, and the
    ledger's own methods write only inside ``with self._fields as f:``,
    which holds the per-ledger lock and hands out the instance dict.
    Concurrent shard workers charging one shared ledger therefore never lose
    counts.  Reads are plain attribute access — take a :meth:`snapshot` when
    a consistent multi-field view is needed while writers are live.

    On the wire a ledger is its public fields plus ``"execution"``, which
    protocol v1 uses as a boolean tag: whether the counters of
    :class:`ExecutionLedger` follow.
    """

    wire_key: ClassVar[str] = "execution"
    wire_name: ClassVar[bool] = False

    charges: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The one writer: the ledger lock, handing out the instance dict.
        object.__setattr__(self, "_fields", Guarded(vars(self)))

    def charge(self, cost: OperatorCost, count: int = 1) -> float:
        """Charge ``count`` invocations of ``cost`` and return the seconds added."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        seconds = cost.seconds_per_call * count
        with self._fields:
            self.charges[cost.name] = self.charges.get(cost.name, 0.0) + seconds
            self.calls[cost.name] = self.calls.get(cost.name, 0) + count
        return seconds

    def charge_seconds(self, name: str, seconds: float) -> float:
        """Charge an arbitrary number of simulated seconds to an operator."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        with self._fields:
            self.charges[name] = self.charges.get(name, 0.0) + seconds
            self.calls[name] = self.calls.get(name, 0) + 1
        return seconds

    @property
    def total_seconds(self) -> float:
        """Total simulated runtime accumulated so far."""
        return sum(self.charges.values())

    def call_count(self, name: str) -> int:
        """Number of invocations charged for operator ``name``."""
        return self.calls.get(name, 0)

    def seconds_for(self, name: str) -> float:
        """Simulated seconds charged for operator ``name``."""
        return self.charges.get(name, 0.0)

    def breakdown(self) -> dict[str, float]:
        """Copy of the per-operator seconds breakdown."""
        return dict(self.charges)

    def merge(self, other: "RuntimeLedger") -> None:
        """Fold another (quiescent) ledger's charges into this one."""
        with self._fields:
            for name, seconds in other.charges.items():
                self.charges[name] = self.charges.get(name, 0.0) + seconds
            for name, count in other.calls.items():
                self.calls[name] = self.calls.get(name, 0) + count

    def reset(self) -> None:
        """Discard all accumulated charges."""
        with self._fields:
            self.charges.clear()
            self.calls.clear()

    def snapshot(self) -> "RuntimeLedger":
        """Return an independent copy of the current state."""
        with self._fields:
            return RuntimeLedger(charges=dict(self.charges), calls=dict(self.calls))


class ChargeSink(Protocol):
    """Anything an operator charges: a :class:`RuntimeLedger` or a :class:`ChargeLog`."""

    def charge(self, cost: OperatorCost, count: int = 1) -> float: ...


class ChargeLog:
    """The charges of one deterministic computation, kept in order to be
    replayed onto ledgers later.

    :meth:`replay` makes the same ``charge`` calls in the same order, so a
    ledger's float sums come out bit for bit as if the computation had
    charged it directly.  Written only before it is shared, then read-only.
    """

    def __init__(self) -> None:
        self._charges: list[tuple[OperatorCost, int]] = []

    def charge(self, cost: OperatorCost, count: int = 1) -> float:
        """Record ``count`` invocations of ``cost``; returns the seconds they cost."""
        self._charges.append((cost, count))
        return cost.seconds_per_call * count

    def replay(self, ledger: RuntimeLedger) -> None:
        """Charge ``ledger`` with every recorded call, in the recorded order."""
        for cost, count in self._charges:
            ledger.charge(cost, count)


class FrameCache:
    """An execution's detections: the batches they came in and, per frame,
    which batch and frame row hold it, in two dense 1-D arrays over frame
    positions (no Python object per frame; one ``(n, 2)`` array made the
    walk wait for the GIL under concurrent queries, seen on the served
    benchmark workload)."""

    __slots__ = ("batches", "_batch_of", "_row_of")

    def __init__(self) -> None:
        self.batches: list[DetectionBatch] = []
        self._batch_of = np.full(0, -1, dtype=np.int64)
        self._row_of = np.zeros(0, dtype=np.int64)

    def locate(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per frame: the index into :attr:`batches` of the batch holding it
        (``-1`` when none does) and its frame row there."""
        frames = np.asarray(frames, dtype=np.int64)
        inside = (frames >= 0) & (frames < self._batch_of.size)
        which = np.full(frames.size, -1, dtype=np.int64)
        rows = np.zeros(frames.size, dtype=np.int64)
        which[inside] = self._batch_of[frames[inside]]
        rows[inside] = self._row_of[frames[inside]]
        return which, rows

    def add(self, batch: DetectionBatch) -> int:
        """Cache every frame of ``batch`` (distinct frames); returns how many
        were not cached before."""
        frames = batch.frame_index
        if frames.size and frames.min() < 0:
            raise IndexError(f"cannot cache negative frame {int(frames.min())}")
        grow = int(frames.max(initial=-1)) + 1 - self._batch_of.size
        if grow > 0:
            grow = max(grow, self._batch_of.size)
            self._batch_of = np.concatenate([self._batch_of, np.full(grow, -1, np.int64)])
            self._row_of = np.concatenate([self._row_of, np.zeros(grow, np.int64)])
        new = int(np.count_nonzero(self._batch_of[frames] < 0))
        self._batch_of[frames] = len(self.batches)
        self._row_of[frames] = np.arange(frames.size)
        self.batches.append(batch)
        return new

    def frames(self) -> np.ndarray:
        """Every cached frame, ascending."""
        return np.flatnonzero(self._batch_of >= 0)


def _counter(metric: str, help: str) -> int:
    """An :class:`ExecutionLedger` counter that also feeds a Prometheus counter."""
    return field(default=0, metadata={"metric": metric, "help": help})


@dataclass(frozen=True)
class ExecutionLedger(RuntimeLedger):
    """Per-execution ledger attached to every query result.

    Extends the simulated-runtime accounting with execution-level counters
    (detector invocations, frames decoded, events/batches emitted over the
    streaming protocol, wall-clock time) and a per-execution detection cache
    (:class:`FrameCache`, the batches every tier answered with).  The cache
    is what lets a plan revisit a frame — e.g. the scrubbing plan's
    exhaustive fallback sweeping frames already examined during the
    importance scan — without re-calling (or re-charging) the object
    detector.

    ``wall_seconds`` and the detection cache are excluded from equality so
    that a streamed execution and a blocking execution of the same plan under
    the same RNG stream compare equal field-for-field.

    Every public field declared here is a counter: :meth:`merge`,
    :meth:`snapshot`, the wire codec and the metrics registry
    (:func:`repro.obs.metrics.record_execution_ledger`, for the fields that
    name a Prometheus counter) all fold over this one list, so a new counter
    is one new line.
    """

    wire_name: ClassVar[bool] = True

    #: Object-detector invocations actually charged (cache misses only).
    detector_calls: int = _counter("repro_detector_calls_total", "Charged detector calls")
    #: Distinct frames decoded (one per charged detection).
    frames_decoded: int = _counter("repro_frames_decoded_total", "Frames decoded from video")
    #: Detections served from the per-execution cache instead of the detector
    #: (including frames first seeded into it from the shared cross-query
    #: cache, which are additionally counted in ``shared_cache_hits``).
    detection_cache_hits: int = _counter(
        "repro_detection_cache_hits_total", "Per-execution detection cache hits"
    )
    #: Detections seeded from the process-wide shared cross-query cache —
    #: frames this execution never paid a detector call for.
    shared_cache_hits: int = _counter(
        "repro_shared_cache_hits_total", "Shared cross-query cache hits"
    )
    #: Detections decoded from the persistent index's memory-mapped segments
    #: (exact persisted detector output; never charged).
    index_hits: int = _counter("repro_index_hits_total", "Frames served from the persistent index")
    #: Frames answered by range-sketch evidence alone, without decoding
    #: anything: the index proved them irrelevant (empty range / class
    #: absent / min-count unsatisfiable) or summed them from exact range
    #: totals.  At most once per frame per execution.
    index_skips: int = _counter(
        "repro_index_skips_total", "Frames skipped via index range sketches"
    )
    #: Incremental (non-terminal) events the plan emitted over the streaming
    #: protocol (a parallel execution's ``ShardProgress`` is not counted).
    batches_emitted: int = 0
    #: All events the plan emitted, including the terminal ``Completed``.
    events_emitted: int = 0
    #: Wall-clock seconds from the first pull of the execution's stream
    #: (executor construction and worker spawn included) to its terminal event.
    wall_seconds: float = field(default=0.0, compare=False)
    _cache: FrameCache = field(default_factory=FrameCache, repr=False, compare=False)

    @property
    def detection_cache(self) -> FrameCache:
        """This execution's detections so far, read by the source cascade."""
        return self._cache

    @property
    def seen_frames(self) -> np.ndarray:
        """Frames whose detections this execution already has, ascending."""
        return self._cache.frames()

    def record_detections(self, batch: DetectionBatch) -> None:
        """Note one charged detector invocation per frame and cache the batch."""
        with self._fields as f:
            f["frames_decoded"] += self._cache.add(batch)
            f["detector_calls"] += len(batch)

    def record_cache_hit(self, count: int = 1) -> None:
        """Note ``count`` detections served from the cache (nothing charged)."""
        with self._fields as f:
            f["detection_cache_hits"] += count

    def record_shared_hits(self, batch: DetectionBatch) -> None:
        """Seed the cache with frames the shared cross-query cache served: no
        detector call, decode or charge is recorded."""
        with self._fields as f:
            self._cache.add(batch)
            f["shared_cache_hits"] += len(batch)

    def record_index_hits(self, batch: DetectionBatch, skipped: int) -> None:
        """Seed the cache with frames the persistent index served, ``skipped``
        of them synthesized empty because the range sketch proved them so
        (the rest were decoded from a segment)."""
        with self._fields as f:
            self._cache.add(batch)
            f["index_skips"] += skipped
            f["index_hits"] += len(batch) - skipped

    def record_index_skip(self, count: int = 1) -> None:
        """Note ``count`` frames skipped on sketch evidence alone (no decode)."""
        with self._fields as f:
            f["index_skips"] += count

    def finalize_stream_accounting(
        self, events_emitted: int, batches_emitted: int, wall_seconds: float
    ) -> None:
        """Stamp end-of-stream counters and drop the detection cache.

        Called once per execution, by the session stream that opened it:
        the ledger is frozen, and it may already be visible to other threads
        (shared caches, service snapshots), so the store happens under the
        ledger lock, together with the cache release.
        """
        with self._fields as f:
            f["events_emitted"] = events_emitted
            f["batches_emitted"] = batches_emitted
            f["wall_seconds"] = wall_seconds
            f["_cache"] = FrameCache()

    def merge(self, other: RuntimeLedger) -> None:
        """Fold another ledger's charges — and execution counters — into this one."""
        super().merge(other)
        if isinstance(other, ExecutionLedger):
            with self._fields as f:
                for name in _COUNTERS:
                    f[name] += getattr(other, name)

    def snapshot(self) -> "ExecutionLedger":
        """Return an independent copy of the charges and execution counters
        (the detection cache stays with the execution)."""
        with self._fields:
            return ExecutionLedger(
                charges=dict(self.charges),
                calls=dict(self.calls),
                **{name: getattr(self, name) for name in _COUNTERS},
            )


#: The counter fields of :class:`ExecutionLedger`: the public fields it adds
#: to its base (a dataclass lists inherited fields first).
_COUNTERS = tuple(
    f.name
    for f in fields(ExecutionLedger)[len(fields(RuntimeLedger)) :]
    if not f.name.startswith("_")
)
