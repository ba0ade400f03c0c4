"""Parallel execution harness: backend x workload speedups and cache reuse.

Three claims of the parallel execution engine are gated here:

1. **Thread-backend speedup on latency-bound detectors.**  The scan-bound
   workloads (aggregate, selection, exact over a fixed-seed scenario) run
   sequentially and at 4 thread workers against a detector with a simulated
   per-frame inference latency — the ``time.sleep`` stands in for the
   GPU/RPC latency a real detector has, which is the resource shard workers
   overlap.  Must come out >= 2x faster, bit-for-bit identical.

2. **Process-backend speedup on GIL-bound detectors.**  A detector whose
   per-frame cost is spent *holding the GIL* (a ``ctypes.PyDLL`` foreign
   call, standing in for pure-Python pre/post-processing) shows no thread
   speedup at all — that row is gated at <= 1.2x as documentation of the
   ceiling.  The same workload routed through the cost-based optimizer picks
   the multiprocess shard executor and must come out >= 2x faster at 4
   workers, spawn startup included, still bit-for-bit identical.

3. **Cost-model routing and shared-cache reuse.**  The importance-ranked
   scrubbing query routes its workers through session hints over an engine
   *with* catalog statistics, so the optimizer's parallelism model prices
   the shard startup against the handful of detector calls it estimates —
   and declines.  Gated at no-regression (it used to collapse to 0.44x when
   force-sharded).  Separately, a warm shared cross-query cache must pay
   >= 5x fewer detector calls than the cold run.

Results are written to ``BENCH_parallel.json`` at the repo root.

Run standalone (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick] [--frames N]

Exits non-zero when a speedup, ceiling, or cache assertion fails, or when a
parallel result deviates from the sequential one — which is what the CI
perf smoke job gates on.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.labeled_set import LabeledSet
from repro.detection.simulated import SimulatedDetector
from repro.parallel.cache import SharedDetectionCache
from repro.persist import atomic_write_text
from repro.service.__main__ import PacedSimulatedDetector
from repro.video.scenarios import generate_scenario

from reproduction import print_table

SCENARIO = "rialto"
WORKERS = 4

#: Queries over the scenario's primary class.  ``gate`` is the assertion the
#: CI job applies: the scan-bound workloads must come out >= 2x faster under
#: explicit parallelism ("speedup"), while the importance-ranked scrubbing
#: query routes its workers through session hints over a statistics-bearing
#: engine — the cost model declines sharding it — and must therefore *not
#: regress* ("no_regression").
WORKLOADS = [
    ("aggregate_scan", "SELECT FCOUNT(*) FROM v WHERE class = '{cls}'", "speedup"),
    ("selection", "SELECT * FROM v WHERE class = '{cls}'", "speedup"),
    ("exact", "SELECT * FROM v", "speedup"),
    (
        "scrubbing",
        "SELECT timestamp FROM v GROUP BY timestamp "
        "HAVING COUNT(class = '{cls}') >= 1 LIMIT 10 GAP 30",
        "no_regression",
    ),
]

MIN_SPEEDUP = 2.0
#: Hint-routed workloads may not run slower than sequential (small tolerance
#: for wall-clock noise on a ~0.2s query).
NO_REGRESSION = 0.85
#: The GIL-bound thread row exists to document the ceiling: anything above
#: this is measurement noise, not parallelism.
MAX_GIL_THREAD_SPEEDUP = 1.2
MIN_CACHE_REDUCTION = 5.0

#: The GIL-bound rows use a fixed size in both --quick and full mode: the
#: process backend's cost is dominated by worker spawn (~1-2s of interpreter
#: startup per child on a small box), so the sequential run must be long
#: enough for 4-way overlap to amortize it with margin over MIN_SPEEDUP.
GIL_FRAMES = 800
GIL_MICROS_PER_FRAME = 30_000  # 30ms/frame -> ~24s sequential


class GilBoundDetector(SimulatedDetector):
    """Mask R-CNN simulation whose per-frame cost holds the GIL.

    ``ctypes.PyDLL`` calls foreign code *without* releasing the GIL — the
    stand-in for detectors dominated by pure-Python pre/post-processing.
    Thread workers cannot overlap this; spawned process workers can.  The
    class is module-level and carries only value-type state so it pickles
    into spawn children.
    """

    gil_bound = True

    def __init__(self, micros_per_frame: int = GIL_MICROS_PER_FRAME) -> None:
        base = SimulatedDetector.mask_rcnn()
        super().__init__(
            name=base.name,
            cost=base.cost,
            noise=base.noise,
            confidence_threshold=base.confidence_threshold,
            supported=base._supported,
            seed=base.seed,
        )
        self.micros_per_frame = micros_per_frame

    def _hold_gil(self, frames: int) -> None:
        libc = ctypes.PyDLL(None)  # PyDLL: the call runs with the GIL held
        libc.usleep(ctypes.c_uint(self.micros_per_frame * frames))

    def detect_columns(self, video, frame_indices):
        self._hold_gil(len(frame_indices))
        return super().detect_columns(video, frame_indices)


def build_engine(
    num_frames: int,
    detector: SimulatedDetector,
    shared_cache: SharedDetectionCache | None = None,
    with_statistics: bool = False,
) -> BlazeIt:
    engine = BlazeIt(
        detector=detector,
        config=BlazeItConfig(seed=0),
        shared_cache=shared_cache,
    )
    engine.register_video("v", test_video=generate_scenario(SCENARIO, "test", num_frames))
    if with_statistics:
        # Label the train/heldout splits with the *unpaced* reference
        # detector: statistics feed the sharder and the parallelism model,
        # never results, so the pacing wrapper would only slow labeling.
        split_frames = max(256, num_frames // 4)
        labeled = LabeledSet.build(
            generate_scenario(SCENARIO, "train", split_frames),
            generate_scenario(SCENARIO, "heldout", split_frames),
            SimulatedDetector.mask_rcnn(),
        )
        engine.attach_labeled_set("v", labeled)
    return engine


def fingerprint(result) -> tuple:
    out: tuple = (result.kind, result.method, result.detection_calls)
    if hasattr(result, "value"):
        out += (result.value,)
    if hasattr(result, "frames"):
        out += (tuple(result.frames), result.satisfied)
    if hasattr(result, "matched_frames"):
        out += (tuple(result.matched_frames),)
    if hasattr(result, "records"):
        out += (tuple((r.frame_index, r.object_class, r.trackid) for r in result.records),)
    return out


def primary_class(num_frames: int) -> str:
    video = generate_scenario(SCENARIO, "test", min(num_frames, 64))
    return video.object_class_names[0]


def timed_execution(
    engine: BlazeIt,
    query: str,
    parallelism: int,
    hint_routed: bool = False,
    backend: str | None = None,
):
    """Run one query, returning (wall seconds, result, routed decision).

    ``hint_routed`` passes the worker count through session hints — the
    production default path, where the cost model may pick a backend or
    decline sharding — instead of the explicit per-call arguments, which
    are always honoured as given.
    """
    from repro import QueryHints

    hints = QueryHints(parallelism=parallelism) if hint_routed else None
    with engine.session(hints=hints) as session:
        prepared = session.prepare(query)
        decision = prepared.explain().parallelism if hint_routed else ""
        started = time.perf_counter()
        result = prepared.execute(
            rng=np.random.default_rng(1234),
            parallelism=None if hint_routed else parallelism,
            backend=None if hint_routed else backend,
        )
        return time.perf_counter() - started, result, decision


def entry(
    name: str,
    backend: str,
    num_frames: int,
    sequential: tuple,
    parallel: tuple,
    gate: str,
    hint_routed: bool = False,
) -> dict:
    sequential_seconds, sequential_result, _ = sequential
    parallel_seconds, parallel_result, decision = parallel
    return {
        "workload": name,
        "backend": backend,
        "frames": num_frames,
        "workers": WORKERS,
        "hint_routed": hint_routed,
        "routed_decision": decision,
        "sequential_seconds": sequential_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": sequential_seconds / parallel_seconds,
        "identical": fingerprint(sequential_result) == fingerprint(parallel_result),
        "detector_calls": parallel_result.execution_ledger.detector_calls,
        "gated": gate,
    }


def run_speedup_suite(num_frames: int, seconds_per_frame: float) -> list[dict]:
    cls = primary_class(num_frames)
    entries = []
    for name, template, gate in WORKLOADS:
        query = template.format(cls=cls)
        hint_routed = gate == "no_regression"
        engine = build_engine(
            num_frames,
            PacedSimulatedDetector(seconds_per_frame),
            with_statistics=hint_routed,
        )
        sequential = timed_execution(engine, query, parallelism=1)
        parallel = timed_execution(
            engine,
            query,
            parallelism=WORKERS,
            hint_routed=hint_routed,
            backend=None if hint_routed else "threads",
        )
        entries.append(
            entry(name, "threads", num_frames, sequential, parallel, gate, hint_routed)
        )
    return entries


def run_gil_suite() -> list[dict]:
    """Sequential vs threads vs processes on a GIL-holding detector.

    The thread row is forced (the optimizer would never pick threads for a
    ``gil_bound`` detector) and documents the ceiling; the process row goes
    through hint routing so the cost model itself picks the multiprocess
    backend, spawn cost priced in.
    """
    engine = build_engine(GIL_FRAMES, GilBoundDetector(), with_statistics=True)
    query = "SELECT * FROM v"
    sequential = timed_execution(engine, query, parallelism=1)
    threaded = timed_execution(engine, query, parallelism=WORKERS, backend="threads")
    processed = timed_execution(engine, query, parallelism=WORKERS, hint_routed=True)
    return [
        entry("gil_bound_scan", "threads", GIL_FRAMES, sequential, threaded, "gil_ceiling"),
        entry(
            "gil_bound_scan",
            "processes",
            GIL_FRAMES,
            sequential,
            processed,
            "speedup",
            hint_routed=True,
        ),
    ]


def run_cache_suite(num_frames: int, seconds_per_frame: float) -> dict:
    cls = primary_class(num_frames)
    query = f"SELECT FCOUNT(*) FROM v WHERE class = '{cls}'"
    cache = SharedDetectionCache(capacity_bytes=512 << 20)
    engine = build_engine(
        num_frames, PacedSimulatedDetector(seconds_per_frame), shared_cache=cache
    )
    cold_seconds, cold, _ = timed_execution(engine, query, parallelism=WORKERS)
    warm_seconds, warm, _ = timed_execution(engine, query, parallelism=WORKERS)
    cold_calls = cold.execution_ledger.detector_calls
    warm_calls = warm.execution_ledger.detector_calls
    return {
        "frames": num_frames,
        "cold_detector_calls": cold_calls,
        "warm_detector_calls": warm_calls,
        "warm_shared_cache_hits": warm.execution_ledger.shared_cache_hits,
        "call_reduction": cold_calls / max(1, warm_calls),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "values_equal": cold.value == warm.value,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--frames", type=int, default=None)
    args = parser.parse_args()
    num_frames = args.frames or (800 if args.quick else 2400)
    seconds_per_frame = 0.0005 if args.quick else 0.001

    speedups = run_speedup_suite(num_frames, seconds_per_frame)
    speedups += run_gil_suite()
    cache = run_cache_suite(num_frames, seconds_per_frame)

    print_table(
        f"Parallel execution backends ({WORKERS} workers)",
        ["workload", "backend", "seq s", "par s", "speedup", "identical", "gated"],
        [
            [
                e["workload"],
                e["backend"],
                e["sequential_seconds"],
                e["parallel_seconds"],
                e["speedup"],
                e["identical"],
                e["gated"],
            ]
            for e in speedups
        ],
    )
    for e in speedups:
        if e["routed_decision"]:
            print(f"  routed {e['workload']}: {e['routed_decision']}")
    print_table(
        "Shared cross-query detection cache (cold vs warm)",
        ["cold calls", "warm calls", "reduction", "cold s", "warm s"],
        [
            [
                cache["cold_detector_calls"],
                cache["warm_detector_calls"],
                cache["call_reduction"],
                cache["cold_seconds"],
                cache["warm_seconds"],
            ]
        ],
    )

    report = {
        "scenario": SCENARIO,
        "workers": WORKERS,
        "frames": num_frames,
        "seconds_per_frame": seconds_per_frame,
        "gil_frames": GIL_FRAMES,
        "gil_micros_per_frame": GIL_MICROS_PER_FRAME,
        "speedup_suite": speedups,
        "shared_cache": cache,
    }
    atomic_write_text(REPO_ROOT / "BENCH_parallel.json", json.dumps(report, indent=2))

    failures = []
    for e in speedups:
        label = f"{e['workload']}[{e['backend']}]"
        if not e["identical"]:
            failures.append(f"{label}: parallel result != sequential")
        if e["gated"] == "speedup" and e["speedup"] < MIN_SPEEDUP:
            failures.append(
                f"{label}: speedup {e['speedup']:.2f}x "
                f"< {MIN_SPEEDUP}x at {WORKERS} workers"
            )
        if e["gated"] == "no_regression" and e["speedup"] < NO_REGRESSION:
            failures.append(
                f"{label}: hint-routed parallelism regressed to "
                f"{e['speedup']:.2f}x (the cost model should have declined)"
            )
        if e["gated"] == "gil_ceiling" and e["speedup"] > MAX_GIL_THREAD_SPEEDUP:
            failures.append(
                f"{label}: threads sped a GIL-bound detector up "
                f"{e['speedup']:.2f}x — the detector is not actually GIL-bound"
            )
    if not cache["values_equal"]:
        failures.append("shared cache: warm value != cold value")
    if cache["warm_detector_calls"] * MIN_CACHE_REDUCTION > cache["cold_detector_calls"]:
        failures.append(
            f"shared cache: only {cache['call_reduction']:.1f}x fewer detector "
            f"calls on the warm run (need >= {MIN_CACHE_REDUCTION}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
