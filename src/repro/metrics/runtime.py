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

import threading
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, ClassVar

from repro.wire import Tagged

if TYPE_CHECKING:  # pragma: no cover - typing only (metrics must not import detection)
    from repro.detection.base import DetectionResult


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


@dataclass
class RuntimeLedger(Tagged):
    """Accumulates simulated runtime, broken down by operator.

    The ledger is the single source of truth for "how long did this query
    take" in the reproduction.  Operators call :meth:`charge` once per frame
    they process; benchmark harnesses read :attr:`total_seconds` and
    :meth:`breakdown`.

    Mutation is thread-safe: :meth:`charge` / :meth:`charge_seconds` (and the
    detection-cache mutators of :class:`ExecutionLedger`) hold a per-ledger
    lock, so concurrent shard workers charging one shared ledger never lose
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
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def charge(self, cost: OperatorCost, count: int = 1) -> float:
        """Charge ``count`` invocations of ``cost`` and return the seconds added."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        seconds = cost.seconds_per_call * count
        with self._lock:
            self.charges[cost.name] = self.charges.get(cost.name, 0.0) + seconds
            self.calls[cost.name] = self.calls.get(cost.name, 0) + count
        return seconds

    def charge_seconds(self, name: str, seconds: float) -> float:
        """Charge an arbitrary number of simulated seconds to an operator."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        with self._lock:
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
        with self._lock:
            for name, seconds in other.charges.items():
                self.charges[name] = self.charges.get(name, 0.0) + seconds
            for name, count in other.calls.items():
                self.calls[name] = self.calls.get(name, 0) + count

    def reset(self) -> None:
        """Discard all accumulated charges."""
        with self._lock:
            self.charges.clear()
            self.calls.clear()

    def snapshot(self) -> "RuntimeLedger":
        """Return an independent copy of the current state."""
        copy = RuntimeLedger()
        with self._lock:
            copy.charges = dict(self.charges)
            copy.calls = dict(self.calls)
        return copy


def _counter(metric: str, help: str) -> int:
    """An :class:`ExecutionLedger` counter that also feeds a Prometheus counter."""
    return field(default=0, metadata={"metric": metric, "help": help})


@dataclass
class ExecutionLedger(RuntimeLedger):
    """Per-execution ledger attached to every query result.

    Extends the simulated-runtime accounting with execution-level counters
    (detector invocations, frames decoded, events/batches emitted over the
    streaming protocol, wall-clock time) and a per-execution detection cache
    keyed by frame index.  The cache is what lets a plan revisit a frame —
    e.g. the scrubbing plan's exhaustive fallback sweeping frames already
    examined during the importance scan — without re-calling (or re-charging)
    the object detector.

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
    #: Frames skipped entirely on range-sketch evidence — the index proved
    #: them irrelevant (empty range / class absent / min-count unsatisfiable)
    #: without decoding anything.
    index_skips: int = _counter(
        "repro_index_skips_total", "Frames skipped via index range sketches"
    )
    #: Incremental (non-terminal) events emitted over the streaming protocol.
    batches_emitted: int = 0
    #: All events emitted, including the terminal ``Completed``.
    events_emitted: int = 0
    #: Wall-clock seconds from the first event to the terminal one.
    wall_seconds: float = field(default=0.0, compare=False)
    _detections: "dict[int, DetectionResult]" = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def seen_frames(self) -> set[int]:
        """Frame indices whose detections this execution has already computed."""
        return set(self._detections)

    def cached_detection(self, frame_index: int) -> "DetectionResult | None":
        """The cached detection for a frame, or ``None`` if never computed."""
        return self._detections.get(frame_index)

    def record_detection(self, frame_index: int, result: "DetectionResult") -> None:
        """Note one charged detector invocation and cache its output."""
        with self._lock:
            if frame_index not in self._detections:
                self.frames_decoded += 1
            self._detections[frame_index] = result
            self.detector_calls += 1

    def record_cache_hit(self) -> None:
        """Note one detection served from the cache (nothing charged)."""
        with self._lock:
            self.detection_cache_hits += 1

    def stash_detection(self, frame_index: int, result: "DetectionResult") -> None:
        """Seed the per-execution cache with a detection computed elsewhere.

        Used when the shared cross-query cache serves a frame: the detection
        enters this execution's cache (so later repeats dedupe normally) but
        no detector call, decode, or charge is recorded.
        """
        with self._lock:
            self._detections.setdefault(frame_index, result)
            self.shared_cache_hits += 1

    def stash_index_detection(
        self, frame_index: int, result: "DetectionResult", skipped: bool = False
    ) -> None:
        """Seed the per-execution cache with a detection served by the index.

        Mirrors :meth:`stash_detection` for the persistent-index tier:
        ``skipped=True`` means the range sketch proved the frame empty and the
        result was synthesized without decoding a segment.
        """
        with self._lock:
            self._detections.setdefault(frame_index, result)
            if skipped:
                self.index_skips += 1
            else:
                self.index_hits += 1

    def record_index_skip(self, count: int = 1) -> None:
        """Note ``count`` frames skipped on sketch evidence alone (no decode)."""
        with self._lock:
            self.index_skips += count

    def release_cache(self) -> None:
        """Drop the per-frame detection cache, keeping every counter.

        Called when execution completes: the cache exists only for
        intra-execution dedupe, and results should not pin one
        ``DetectionResult`` per decoded frame for their whole lifetime.
        """
        with self._lock:
            self._detections.clear()

    def finalize_stream_accounting(
        self, events_emitted: int, batches_emitted: int, wall_seconds: float
    ) -> None:
        """Stamp end-of-stream counters and drop the detection cache.

        The single sanctioned way for stream drivers to write these
        counters (RPR003): the ledger may already be visible to other
        threads (shared caches, service snapshots), so the store happens
        under the ledger lock, together with the cache release.
        """
        with self._lock:
            self.events_emitted = events_emitted
            self.batches_emitted = batches_emitted
            self.wall_seconds = wall_seconds
            self._detections.clear()

    def set_wall_seconds(self, wall_seconds: float) -> None:
        """Overwrite the wall-clock figure with driver-observed time.

        The single sanctioned way for the parallel engine to correct
        ``wall_seconds`` (RPR003): ``timed_stream`` starts its clock when the
        inner stream first advances, which excludes executor construction —
        worker spawn in particular — so the driver re-stamps the figure with
        the elapsed time since ``parallel_events`` was entered.  Thread- and
        process-backend rows become directly comparable.  Wall time is
        display-only (``compare=False``; excluded from wire fingerprints), so
        the overwrite can never affect results.
        """
        if wall_seconds < 0:
            raise ValueError(f"wall_seconds must be non-negative, got {wall_seconds}")
        with self._lock:
            self.wall_seconds = wall_seconds

    def merge(self, other: RuntimeLedger) -> None:
        """Fold another ledger's charges — and execution counters — into this one."""
        super().merge(other)
        if isinstance(other, ExecutionLedger):
            with self._lock:
                for name in _COUNTERS:
                    setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> "ExecutionLedger":
        """Return an independent copy, execution counters and cache included."""
        with self._lock:
            return ExecutionLedger(
                charges=dict(self.charges),
                calls=dict(self.calls),
                _detections=dict(self._detections),
                **{name: getattr(self, name) for name in _COUNTERS},
            )


#: The counter fields of :class:`ExecutionLedger`: the public fields it adds
#: to its base (a dataclass lists inherited fields first).
_COUNTERS = tuple(
    f.name
    for f in fields(ExecutionLedger)[len(fields(RuntimeLedger)) :]
    if not f.name.startswith("_")
)
