"""Every metric the benchmark reports, by name, with unit and direction.

``END_TO_END`` are what a caller of the system sees; each is defined on every
workload and is never 0, because the driver compares each of them on each
workload against a bound.  ``PER_LAYER`` are single-layer numbers with no
bound: spans and counts from the traced phase, plus the caller-visible numbers
that exist on some workloads only (per-shape walls, time to first event, ingest
rate, the simulated clock).  ``BENCHMARK.json`` lists the same names; the
self-test keeps the two in step.

Conventions for per-layer names: ``*_self_s`` is self time (span minus
children), any other ``*_s`` is the whole span; the unit says what it is per —
``s/op`` and ``count/op`` are totals over the measured ops divided by their
number, ``s/call`` is per call of the wrapped callable (set-up and warm-up
included, for callables that mostly run there).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from .ops import SHAPE_NAMES, SPARSE
from .workloads import Sample

#: ``(name, unit, better, bound)`` — the bound is the share of the parent's
#: median by which the metric may worsen before a change counts as a regression.
#: Time bounds are the contract's maximum because this box drifts: over ten
#: seeds the quartiles of throughput lie 0.04-0.23 of the median apart, all
#: workloads in step, whatever estimator is used (see README).  The median wall
#: is ``wall.p50_s`` among the per-layer metrics: over the same runs it spread
#: up to 0.32, past any bound the contract allows.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)


@dataclass
class Phase:
    """One measured phase of one workload (untraced, or traced)."""

    samples: list[Sample]
    wall: float
    setup_seconds: list[float]
    peak_rss_mb: float
    #: Span totals per name over the measured ops / over every op (traced only).
    measured: dict[str, dict[str, float]] = field(default_factory=dict)
    overall: dict[str, dict[str, float]] = field(default_factory=dict)
    span_count: int = 0
    #: Per op kind, where its wall went (see :func:`kind_breakdown`).
    breakdown: dict[str, list[tuple[str, float, float]]] = field(default_factory=dict)
    #: Workload-level numbers: server registry sums, index size, rejections.
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if sample.failures)

    def walls(self, *kinds: str) -> list[float]:
        return [s.wall for s in self.samples if not kinds or s.kind in kinds]


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def kind_median_wall(samples: list[Sample]) -> float:
    """The median wall per op kind, averaged over the kinds (each has an equal
    share of the ops).  The pooled median is not used: with an even number of
    kinds it falls in the gap between two clusters — between thread and
    process ops it moved 17% run to run."""
    walls: dict[str, list[float]] = defaultdict(list)
    for sample in samples:
        walls[sample.kind].append(sample.wall)
    return sum(statistics.median(values) for values in walls.values()) / len(walls)


def end_to_end(phase: Phase) -> dict[str, float]:
    return {
        "setup_s": median(phase.setup_seconds),
        "queries_per_s": phase.attempted / phase.wall,
        "peak_rss_mb": phase.peak_rss_mb,
    }


# -- per layer -------------------------------------------------------------------------


class _Layers:
    """Accessors the per-layer table is written against."""

    def __init__(self, untraced: Phase, traced: Phase) -> None:
        self.untraced = untraced
        self.traced = traced
        self.ops = max(1, traced.attempted)

    def _entry(self, scope: dict[str, dict[str, float]], name: str) -> dict[str, float]:
        return scope.get(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "value": 0.0})

    # spans of the measured ops, per op
    def total(self, name: str) -> float:
        return self._entry(self.traced.measured, name)["seconds"] / self.ops

    def self_time(self, name: str) -> float:
        return self._entry(self.traced.measured, name)["self_seconds"] / self.ops

    def calls(self, name: str) -> float:
        return self._entry(self.traced.measured, name)["calls"] / self.ops

    def value(self, name: str) -> float:
        return self._entry(self.traced.measured, name)["value"] / self.ops

    # spans of every op, set-up and warm-up included, per call
    def per_call(self, name: str, key: str = "seconds") -> float:
        entry = self._entry(self.traced.overall, name)
        return entry[key] / entry["calls"] if entry["calls"] else 0.0

    def setup_total(self, name: str) -> float:
        return self._entry(self.traced.overall, name)["seconds"] - self._entry(
            self.traced.measured, name
        )["seconds"]

    # ledger counters and client-side numbers of the traced ops
    def extra_sum(self, key: str) -> float:
        return float(sum(s.extra.get(key, 0.0) for s in self.traced.samples))

    def extra_mean(self, key: str) -> float:
        return self.extra_sum(key) / self.ops

    def ratio(self, numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0


def _wall_p50(kinds: tuple[str, ...]) -> Callable[[_Layers], float]:
    return lambda L: median(L.untraced.walls(*kinds))


def _within_bound(L: _Layers) -> float:
    verdicts = [s.within_bound for s in L.untraced.samples + L.traced.samples]
    verdicts = [v for v in verdicts if v is not None]
    return L.ratio(sum(verdicts), len(verdicts))


def _frames_touched(L: _Layers) -> float:
    return (
        L.extra_sum("shared_cache_hits")
        + L.extra_sum("index_hits")
        + sum(s.detector_calls for s in L.traced.samples)
    )


def _prefetch_waste(L: _Layers) -> float:
    """Frames a worker computed that the plan never consumed / computed."""
    prefetched = L.value("parallel.frames_prefetched")
    if not prefetched:
        return 0.0
    return max(0.0, 1.0 - L.value("parallel.frames_consumed") / prefetched)


def _trace_overhead(L: _Layers) -> float:
    untraced = L.untraced.wall / max(1, L.untraced.attempted)
    traced = L.traced.wall / L.ops
    return L.ratio(traced, untraced) - 1.0


_SPARSE_SCANS = tuple(f"{shape}@{SPARSE}" for shape in ("scrubbing", "selection", "exact"))

#: ``(name, unit, better, how)``.
PER_LAYER: tuple[tuple[str, str, str, Callable[[_Layers], float]], ...] = (
    # The prepare path: none is expected to move an end-to-end metric (< 1 ms).
    ("frameql.parse_s", "s/call", "lower", lambda L: L.per_call("frameql.parse")),
    ("frameql.analyze_s", "s/call", "lower", lambda L: L.per_call("frameql.analyze")),
    ("optimizer.plan_s", "s/call", "lower", lambda L: L.per_call("optimizer.plan")),
    ("optimizer.candidates", "count/call", "lower",
     lambda L: L.per_call("optimizer.candidates", "value")),
    ("api.prepare_s", "s/call", "lower", lambda L: L.per_call("api.prepare")),
    ("api.execute_self_s", "s/op", "lower", lambda L: L.self_time("api.execute")),
    ("optimizer.run_self_s", "s/op", "lower", lambda L: L.self_time("optimizer.run")),
    # specialization
    ("specialization.train_s", "s/op", "lower", lambda L: L.total("specialization.train")),
    ("specialization.train_calls", "count/op", "lower",
     lambda L: L.calls("specialization.train")),
    ("specialization.infer_s", "s/op", "lower", lambda L: L.total("specialization.infer")),
    ("specialization.infer_frames", "count/op", "lower",
     lambda L: L.value("specialization.infer_frames")),
    # aqp
    ("aqp.sample_s", "s/op", "lower", lambda L: L.total("aqp.sample")),
    ("aqp.samples_used", "count/op", "lower", lambda L: L.extra_mean("samples_used")),
    ("aqp.rounds", "count/op", "lower", lambda L: L.calls("aqp.sample")),
    ("aqp.within_bound_ratio", "ratio", "higher", _within_bound),
    ("aqp.rewrite_abs_error", "count", "lower",
     lambda L: L.ratio(
         L.extra_sum("rewrite_abs_error"),
         sum(1 for s in L.traced.samples if "rewrite_abs_error" in s.extra),
     )),
    # scrubbing
    ("scrubbing.rank_s", "s/op", "lower", lambda L: L.total("scrubbing.rank")),
    ("scrubbing.verified_per_hit", "ratio", "lower",
     lambda L: L.ratio(L.extra_sum("scrub_verified"), L.extra_sum("scrub_hits"))),
    # selection
    ("selection.infer_plan_s", "s/op", "lower", lambda L: L.total("selection.infer_plan")),
    ("selection.filter_pass_ratio", "ratio", "lower",
     lambda L: L.ratio(L.extra_sum("filter_pass"), L.extra_sum("filter_scanned"))),
    # tracking
    ("tracking.resolve_s", "s/op", "lower", lambda L: L.total("tracking.resolve")),
    ("tracking.iou_calls", "count/op", "lower", lambda L: L.value("tracking.iou_calls")),
    ("tracking.tracks_out", "count/op", "lower", lambda L: L.value("tracking.tracks_out")),
    # detection / video / core
    ("detection.detect_s", "s/op", "lower", lambda L: L.total("detection.detect")),
    ("detection.frames_detected", "count/op", "lower",
     lambda L: L.value("detection.frames_detected")),
    ("detection.encode_s", "s/op", "lower", lambda L: L.total("detection.encode")),
    ("detection.decode_s", "s/op", "lower", lambda L: L.total("detection.decode")),
    ("detection.decoded_objects", "count/op", "lower",
     lambda L: L.value("detection.decoded_objects")),
    ("video.features_s", "s/op", "lower", lambda L: L.total("video.features")),
    ("video.generate_s", "s", "lower", lambda L: L.setup_total("video.generate")),
    ("core.detect_batch_self_s", "s/op", "lower", lambda L: L.self_time("core.detect_batch")),
    ("core.exec_cache_hit_ratio", "ratio", "higher",
     lambda L: L.ratio(
         L.extra_sum("exec_cache_hits"),
         L.extra_sum("exec_cache_hits") + L.extra_sum("frames_decoded"),
     )),
    ("core.events_emitted", "count/op", "lower", lambda L: L.extra_mean("events_emitted")),
    # index
    ("index.get_s", "s/op", "lower", lambda L: L.total("index.get")),
    ("index.hits", "count/op", "higher", lambda L: L.extra_mean("index_hits")),
    ("index.skips", "count/op", "higher", lambda L: L.extra_mean("index_skips")),
    ("index.skip_ratio", "ratio", "higher",
     lambda L: L.ratio(
         L.extra_sum("index_skips"), L.extra_sum("index_skips") + L.extra_sum("index_hits")
     )),
    ("index.build_s", "s/call", "lower", lambda L: L.per_call("index.build")),
    ("index.open_s", "s/call", "lower", lambda L: L.per_call("index.open")),
    ("index.warm_start_s", "s/call", "lower", lambda L: L.per_call("index.warm_start")),
    ("index.bytes_on_disk", "bytes", "lower", lambda L: L.traced.extras.get("index_bytes", 0.0)),
    # catalog / shared cache persistence
    ("catalog.from_labeled_set_s", "s/call", "lower",
     lambda L: L.per_call("catalog.from_labeled_set")),
    ("catalog.save_s", "s/call", "lower", lambda L: L.per_call("catalog.save")),
    ("catalog.load_s", "s/call", "lower", lambda L: L.per_call("catalog.load")),
    ("parallel.cache_save_s", "s/call", "lower", lambda L: L.per_call("parallel.cache_save")),
    ("parallel.cache_load_s", "s/call", "lower", lambda L: L.per_call("parallel.cache_load")),
    ("parallel.shared_cache_hit_ratio", "ratio", "higher",
     lambda L: L.ratio(L.extra_sum("shared_cache_hits"), _frames_touched(L))),
    # parallel executors
    ("parallel.spawn_s", "s/call", "lower",
     lambda L: L.ratio(L.value("parallel.spawn_seconds"), L.value("parallel.executions"))),
    ("parallel.take_wait_s", "s/op", "lower", lambda L: L.self_time("parallel.take")),
    ("parallel.merge_self_s", "s/op", "lower", lambda L: L.self_time("parallel.merge")),
    ("parallel.prefetch_waste_ratio", "ratio", "lower", _prefetch_waste),
    ("parallel.shm_bytes", "bytes/op", "lower", lambda L: L.value("parallel.shm_bytes")),
    # service
    ("service.encode_s", "s/op", "lower", lambda L: L.self_time("service.encode")),
    ("service.decode_s", "s/op", "lower", lambda L: L.extra_mean("client_decode")),
    ("service.admission_wait_s", "s/op", "lower",
     lambda L: L.traced.extras.get("admission_wait_s", 0.0)),
    ("service.slot_wait_s", "s/op", "lower", lambda L: L.traced.extras.get("slot_wait_s", 0.0)),
    ("service.server_ttfe_s", "s/op", "lower",
     lambda L: L.traced.extras.get("server_ttfe_s", 0.0)),
    ("service.http_overhead_s", "s/op", "lower", lambda L: L.extra_mean("http_overhead")),
    ("service.events_per_query", "count/op", "lower", lambda L: L.extra_mean("wire_events")),
    ("service.bytes_per_query", "bytes/op", "lower", lambda L: L.extra_mean("wire_bytes")),
    ("service.rejected_ratio", "ratio", "lower",
     lambda L: L.ratio(L.traced.extras.get("rejected", 0.0), L.ops)),
    # the simulated clock (exact for a seed and an op list)
    ("metrics.sim_detector_s", "s/op", "lower", lambda L: L.extra_mean("sim_detector_s")),
    ("metrics.sim_training_s", "s/op", "lower", lambda L: L.extra_mean("sim_training_s")),
    ("metrics.sim_inference_s", "s/op", "lower", lambda L: L.extra_mean("sim_inference_s")),
    ("metrics.detector_calls_per_query", "count/op", "lower",
     lambda L: sum(s.detector_calls for s in L.traced.samples) / L.ops),
    ("metrics.sim_seconds_per_query", "s/op", "lower",
     lambda L: sum(s.sim_seconds for s in L.untraced.samples) / max(1, L.untraced.attempted)),
    # tracing itself
    ("obs.trace_overhead_ratio", "ratio", "lower", _trace_overhead),
    ("obs.spans_per_query", "count/op", "lower", lambda L: L.traced.span_count / L.ops),
    # Caller-visible numbers that exist on some workloads only, from the
    # untraced phase of the same run (0 where the workload has no such op).
    *(
        (f"wall.{shape}_p50_s", "s", "lower", _wall_p50((shape,)))
        for shape in SHAPE_NAMES
    ),
    ("wall.sparse_scan_p50_s", "s", "lower", _wall_p50(_SPARSE_SCANS)),
    ("wall.p50_s", "s", "lower", lambda L: kind_median_wall(L.untraced.samples)),
    ("wall.p90_s", "s", "lower", lambda L: percentile(L.untraced.walls(), 0.9)),
    ("wire.ttfe_p50_s", "s", "lower",
     lambda L: median(s.extra["ttfe"] for s in L.untraced.samples if "ttfe" in s.extra)),
    ("sharded.threads_wall_p50_s", "s", "lower",
     lambda L: median(s.wall for s in L.untraced.samples if s.kind.endswith("@threads"))),
    ("sharded.processes_wall_p50_s", "s", "lower",
     lambda L: median(s.wall for s in L.untraced.samples if s.kind.endswith("@processes"))),
    ("ingest.frames_per_s", "frames/s", "higher",
     lambda L: L.ratio(
         sum(s.extra.get("ingest_frames", 0.0) for s in L.untraced.samples),
         sum(s.extra.get("ingest_wall", 0.0) for s in L.untraced.samples),
     )),
    ("index.bytes_per_frame", "bytes/frame", "lower",
     lambda L: L.ratio(
         L.untraced.extras.get("index_bytes", 0.0), L.untraced.extras.get("index_frames", 0.0)
     )),
    ("ops.failed_ratio", "ratio", "lower",
     lambda L: L.ratio(
         L.untraced.failed + L.traced.failed, L.untraced.attempted + L.traced.attempted
     )),
)


def per_layer(untraced: Phase, traced: Phase) -> dict[str, float]:
    layers = _Layers(untraced, traced)
    return {name: float(how(layers)) for name, _unit, _better, how in PER_LAYER}


def units() -> dict[str, str]:
    out = {name: unit for name, unit, _better, _bound in END_TO_END}
    out.update({name: unit for name, unit, _better, _how in PER_LAYER})
    return out


def span_totals(dump: dict[str, Any], ops: set[str] | None) -> dict[str, dict[str, float]]:
    """Per span name: calls, seconds, self seconds and counter value, over the
    given ops of a recorder dump (``None``: every op)."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "value": 0.0}
    )
    for _id, _parent, name, op, _thread, start, end, self_seconds in dump["spans"]:
        if ops is None or str(op) in ops:
            entry = out[name]
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["self_seconds"] += self_seconds
    for key, (calls, seconds, self_seconds) in dump["tallies"].items():
        op, _, name = key.partition("|")
        if ops is None or op in ops:
            entry = out[name]
            entry["calls"] += calls
            entry["seconds"] += seconds
            entry["self_seconds"] += self_seconds
    for key, value in dump["counts"].items():
        op, _, name = key.partition("|")
        if ops is None or op in ops:
            out[name]["value"] += value
    return dict(out)


def merge_totals(*totals: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for part in totals:
        for name, entry in part.items():
            merged = out.setdefault(
                name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "value": 0.0}
            )
            for key, value in entry.items():
                merged[key] += value
    return out


def kind_breakdown(
    parts: list[tuple[dict[str, Any], dict[str, str]]], samples: list[Sample]
) -> dict[str, list[tuple[str, float, float]]]:
    """Where the wall of each op kind went: ``{kind: [(span name, self seconds
    per op, whole-span seconds per op), ...]}``, largest self time first.
    ``parts`` pairs each recorder dump with its ``{op: kind}`` map."""
    ops_of: dict[str, int] = defaultdict(int)
    for sample in samples:
        ops_of[sample.kind] += 1
    seconds: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(lambda: [0.0, 0.0])
    )
    for dump, kind_of in parts:
        for _id, _parent, name, op, _thread, start, end, self_seconds in dump["spans"]:
            kind = kind_of.get(str(op))
            if kind is not None:
                entry = seconds[kind][name]
                entry[0] += self_seconds
                entry[1] += end - start
        for key, (_calls, total, self_seconds) in dump["tallies"].items():
            op, _, name = key.partition("|")
            kind = kind_of.get(op)
            if kind is not None:
                entry = seconds[kind][name]
                entry[0] += self_seconds
                entry[1] += total
    return {
        kind: sorted(
            (
                (name, own / ops_of[kind], whole / ops_of[kind])
                for name, (own, whole) in by_name.items()
            ),
            key=lambda row: -row[1],
        )
        for kind, by_name in sorted(seconds.items())
    }
