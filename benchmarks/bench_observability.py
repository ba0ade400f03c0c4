"""Observability overhead harness: tracing must be ~free, and exactly free off.

Two claims of the observability layer are gated here:

1. **Zero overhead when disabled.**  With tracing off (the default), the
   execution context carries ``tracer=None`` and every instrumentation site
   reduces to one attribute check returning a shared null context manager.
   The gate is structural — a disabled run must produce no tracer, attach no
   :class:`~repro.obs.profile.ExecutionProfile`, and be byte-identical (via
   :func:`~repro.service.protocol.result_fingerprint`) to itself across
   repeats — plus the measured off-vs-off spread is reported as the noise
   floor the enabled gate is read against.

2. **<= 5% overhead when enabled.**  The same scan workload with
   ``trace=True`` must stay within ``MAX_ENABLED_OVERHEAD`` of the disabled
   wall time (min-of-repeats on both sides, fresh engine per run so every
   run pays identical cold detector work), while remaining byte-identical
   to the disabled result and carrying a full per-operator profile.

Results are written to ``BENCH_obs.json`` at the repo root.

Run standalone (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_observability.py [--quick] [--frames N]

Exits non-zero when the overhead gate, an identity check, or a profile
structure check fails — which is what the CI perf smoke job gates on.
"""

from __future__ import annotations

import argparse
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
from repro.detection.simulated import SimulatedDetector
from repro.persist import atomic_write_text
from repro.service.__main__ import PacedSimulatedDetector
from repro.service.protocol import result_fingerprint
from repro.video.scenarios import generate_scenario

from reproduction import print_table

SCENARIO = "rialto"
REPEATS = 3
#: Enabled-tracing wall time may exceed disabled by at most this fraction.
MAX_ENABLED_OVERHEAD = 0.05
#: The scan workload: every frame is verified, so per-frame span overhead —
#: if any existed — would be maximally visible.
QUERY = "SELECT * FROM v"


def run_once(
    num_frames: int, seconds_per_frame: float, trace: bool
) -> tuple[float, object]:
    """One cold execution of the scan workload; returns (wall, result).

    A fresh engine per run keeps the detection caches cold, so traced and
    untraced runs pay exactly the same detector work.
    """
    engine = BlazeIt(
        detector=PacedSimulatedDetector(seconds_per_frame),
        config=BlazeItConfig(seed=0),
    )
    engine.register_video(
        "v", test_video=generate_scenario(SCENARIO, "test", num_frames)
    )
    with engine.session() as session:
        prepared = session.prepare(QUERY)
        started = time.perf_counter()
        result = prepared.execute(rng=np.random.default_rng(1234), trace=trace)
        return time.perf_counter() - started, result


def measure(
    num_frames: int, seconds_per_frame: float, trace: bool
) -> tuple[list[float], list[object]]:
    walls, results = [], []
    for _ in range(REPEATS):
        wall, result = run_once(num_frames, seconds_per_frame, trace)
        walls.append(wall)
        results.append(result)
    return walls, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--frames", type=int, default=None)
    args = parser.parse_args()
    num_frames = args.frames or (400 if args.quick else 1200)
    seconds_per_frame = 0.0005 if args.quick else 0.001

    off_walls, off_results = measure(num_frames, seconds_per_frame, trace=False)
    on_walls, on_results = measure(num_frames, seconds_per_frame, trace=True)

    off_best, on_best = min(off_walls), min(on_walls)
    overhead = on_best / off_best - 1.0
    noise_floor = max(off_walls) / off_best - 1.0

    off_prints = {result_fingerprint(r) for r in off_results}
    on_prints = {result_fingerprint(r) for r in on_results}
    identical = off_prints == on_prints and len(off_prints) == 1

    profile = on_results[0].profile
    executed_rows = (
        sum(
            1
            for row in profile.operators
            if row.actual_detector_calls is not None
        )
        if profile is not None
        else 0
    )

    print_table(
        f"Tracing overhead on the scan workload ({num_frames} frames, "
        f"min of {REPEATS})",
        ["mode", "wall s", "overhead", "profile", "identical"],
        [
            ["disabled", off_best, f"noise {noise_floor:+.1%}", "none", True],
            [
                "enabled",
                on_best,
                f"{overhead:+.1%}",
                f"{executed_rows} ops",
                identical,
            ],
        ],
    )

    report = {
        "scenario": SCENARIO,
        "query": QUERY,
        "frames": num_frames,
        "seconds_per_frame": seconds_per_frame,
        "repeats": REPEATS,
        "disabled_walls": off_walls,
        "enabled_walls": on_walls,
        "disabled_best": off_best,
        "enabled_best": on_best,
        "enabled_overhead": overhead,
        "noise_floor": noise_floor,
        "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
        "identical": identical,
        "profiled_operators": executed_rows,
    }
    atomic_write_text(REPO_ROOT / "BENCH_obs.json", json.dumps(report, indent=2))

    failures = []
    if not identical:
        failures.append("traced result fingerprint != untraced (determinism broken)")
    if any(r.profile is not None for r in off_results):
        failures.append("disabled run attached an ExecutionProfile (not zero-cost)")
    if profile is None:
        failures.append("enabled run attached no ExecutionProfile")
    elif executed_rows < 1:
        failures.append("enabled run's profile recorded no executed operator")
    if overhead > MAX_ENABLED_OVERHEAD:
        failures.append(
            f"tracing overhead {overhead:+.1%} exceeds "
            f"{MAX_ENABLED_OVERHEAD:.0%} on the scan workload"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
