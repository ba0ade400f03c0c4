"""Persistent index harness: cold (index-less) vs warm (index-served) queries.

Three claims of the ingest-time index are gated here:

1. **Warm queries pay zero detector calls.**  Each workload runs cold on an
   index-less engine against a detector with a simulated per-frame inference
   latency, then warm on a *fresh* engine that attaches the committed index
   (built once with the unpaced reference detector, which shares the paced
   detector's cache-key identity).  Every warm row must report 0 detector
   calls and come out >= 5x faster in wall-clock on the scan workloads.

2. **Sketch proofs skip provably-irrelevant frames.**  On the sparse
   workload — a video where most sketch ranges are provably empty of the
   queried class — the warm run must skip >= 50% of the frames outright
   (synthesized empties / count-zero proofs, no segment decode).

3. **Skipping never changes results (invariant I7).**  Every warm row is
   identity-checked against its cold run: values, frames, hit sets and
   records must match bit-for-bit.  The fingerprint excludes runtime
   accounting — differing detector/cache/index counters are the point.

A warm-start row additionally boots a fresh engine, preloads the shared
cache from the store, and answers the scan with the index view *bypassed* —
still at zero detector calls.

Results are written to ``BENCH_index.json`` at the repo root.

Run standalone (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_index.py [--quick] [--frames N]

Exits non-zero when an identity, zero-call, speedup, or skip-rate assertion
fails — which is what the CI perf smoke job gates on.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import QueryHints
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.detection.simulated import SimulatedDetector
from repro.parallel.cache import SharedDetectionCache
from repro.persist import atomic_write_text
# Built from mask_rcnn(), so it shares the index's cache-key identity (name,
# seed, threshold): indexes built fast with the unpaced reference detector
# serve queries issued under the paced one.
from repro.service.__main__ import PacedSimulatedDetector
from repro.video.scenarios import generate_scenario
from repro.video.synthetic import ObjectClassSpec, SyntheticVideo, VideoSpec

from reproduction import print_table

SCENARIO = "rialto"
RANGE_SIZE = 16

#: ``gate`` selects the CI assertion: scan workloads must come out >= 5x
#: faster served from the index ("speedup"); the sparse workload must skip
#: >= 50% of its frames via sketch proofs ("skip_rate").  Every row is
#: additionally gated on bit-identity and zero warm detector calls.
WORKLOADS = [
    ("aggregate_scan", "v", "SELECT FCOUNT(*) FROM v WHERE class = '{cls}'", "speedup"),
    ("selection", "v", "SELECT * FROM v WHERE class = '{cls}'", "speedup"),
    ("exact", "v", "SELECT * FROM v", "speedup"),
    (
        "sparse_count",
        "sparse",
        "SELECT FCOUNT(*) FROM sparse WHERE class = 'car'",
        "skip_rate",
    ),
    (
        "sparse_scrubbing",
        "sparse",
        "SELECT timestamp FROM sparse GROUP BY timestamp "
        "HAVING COUNT(class = 'car') >= 2 LIMIT 5 GAP 10",
        "zero_calls_only",
    ),
]

MIN_SPEEDUP = 5.0
MIN_SKIP_RATE = 0.5


def sparse_spec(num_frames: int) -> VideoSpec:
    """A video where cars are rare: most sketch ranges are provably empty."""
    return VideoSpec(
        name="sparse",
        width=1280,
        height=720,
        fps=30.0,
        num_frames=num_frames,
        seed=17,
        object_classes=(
            ObjectClassSpec(
                name="car",
                arrival_rate=0.002,
                mean_duration=40.0,
                size_range=(80.0, 200.0),
                color_weights={"white": 2.0, "red": 1.0},
                burstiness=0.4,
                speed=6.0,
            ),
        ),
    )


def videos_for(num_frames: int) -> dict[str, SyntheticVideo]:
    return {
        "v": generate_scenario(SCENARIO, "test", num_frames),
        "sparse": SyntheticVideo.generate(sparse_spec(num_frames)),
    }


def build_engine(
    videos: dict[str, SyntheticVideo],
    detector: SimulatedDetector,
    index_dir: Path | None = None,
    shared_cache: SharedDetectionCache | None = None,
) -> BlazeIt:
    engine = BlazeIt(
        detector=detector,
        config=BlazeItConfig(seed=0),
        shared_cache=shared_cache
        or SharedDetectionCache(capacity_bytes=256 << 20),
        index_dir=index_dir,
    )
    for name, video in videos.items():
        engine.register_video(name, test_video=video)
    return engine


def fingerprint(result) -> tuple:
    """The answer itself — runtime accounting excluded (it differs by design)."""
    out: tuple = (result.kind, result.method, result.stop_reason)
    if hasattr(result, "value"):
        out += (result.value,)
    if hasattr(result, "frames"):
        out += (tuple(result.frames), result.satisfied)
    if hasattr(result, "matched_frames"):
        out += (tuple(result.matched_frames),)
    if hasattr(result, "records"):
        out += (
            tuple(
                (r.frame_index, r.object_class, r.trackid, r.confidence)
                for r in result.records
            ),
        )
    return out


def timed_query(engine: BlazeIt, query: str, hints: QueryHints | None = None):
    started = time.perf_counter()
    result = engine.query(query, rng=np.random.default_rng(1234), hints=hints)
    return time.perf_counter() - started, result


def run_workloads(
    videos: dict[str, SyntheticVideo],
    index_dir: Path,
    seconds_per_frame: float,
) -> list[dict]:
    cls = videos["v"].object_class_names[0]
    entries = []
    for name, video_name, template, gate in WORKLOADS:
        query = template.format(cls=cls)
        cold_engine = build_engine(videos, PacedSimulatedDetector(seconds_per_frame))
        cold_seconds, cold = timed_query(cold_engine, query)
        # A fresh engine per row: nothing warm except the committed index.
        warm_engine = build_engine(
            videos, PacedSimulatedDetector(seconds_per_frame), index_dir=index_dir
        )
        warm_seconds, warm = timed_query(warm_engine, query)
        ledger = warm.execution_ledger
        num_frames = videos[video_name].num_frames
        entries.append(
            {
                "workload": name,
                "video": video_name,
                "frames": num_frames,
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "speedup": cold_seconds / warm_seconds,
                "cold_detector_calls": cold.execution_ledger.detector_calls,
                "warm_detector_calls": ledger.detector_calls,
                "index_hits": ledger.index_hits,
                "index_skips": ledger.index_skips,
                "skip_rate": ledger.index_skips / num_frames,
                "identical": fingerprint(warm) == fingerprint(cold),
                "gated": gate,
            }
        )
    return entries


def run_warm_start(
    videos: dict[str, SyntheticVideo],
    index_dir: Path,
    seconds_per_frame: float,
) -> dict:
    """Boot a fresh engine, preload the shared cache, bypass the index view."""
    cls = videos["v"].object_class_names[0]
    query = f"SELECT FCOUNT(*) FROM v WHERE class = '{cls}'"
    engine = build_engine(
        videos, PacedSimulatedDetector(seconds_per_frame), index_dir=index_dir
    )
    started = time.perf_counter()
    report = engine.warm_start()
    warm_start_seconds = time.perf_counter() - started
    seconds, result = timed_query(
        engine, query, hints=QueryHints(use_index=False)
    )
    ledger = result.execution_ledger
    return {
        "frames_loaded": report["frames_loaded"],
        "videos": report["videos"],
        "warm_start_seconds": warm_start_seconds,
        "query_seconds": seconds,
        "detector_calls": ledger.detector_calls,
        "shared_cache_hits": ledger.shared_cache_hits,
        "index_hits": ledger.index_hits,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--frames", type=int, default=None)
    args = parser.parse_args()
    num_frames = args.frames or (600 if args.quick else 2000)
    seconds_per_frame = 0.001 if args.quick else 0.002

    videos = videos_for(num_frames)
    with TemporaryDirectory(prefix="bench-index-") as tmp:
        index_dir = Path(tmp) / "store"
        # Ingest with the unpaced reference detector (same cache-key
        # identity as the paced query-time detector).
        builder = build_engine(videos, SimulatedDetector.mask_rcnn(), index_dir)
        build_reports = []
        build_started = time.perf_counter()
        for name in videos:
            build_report = builder.build_index(name, range_size=RANGE_SIZE)
            assert build_report["generation"] == 1
            build_reports.append(build_report)
        build_seconds = time.perf_counter() - build_started

        rows = run_workloads(videos, index_dir, seconds_per_frame)
        warm_start = run_warm_start(videos, index_dir, seconds_per_frame)

    print_table(
        "Persistent index: cold (index-less) vs warm (index-served)",
        [
            "workload", "frames", "cold s", "warm s", "speedup",
            "warm calls", "hits", "skips", "skip rate", "identical", "gated",
        ],
        [
            [
                e["workload"],
                e["frames"],
                e["cold_seconds"],
                e["warm_seconds"],
                e["speedup"],
                e["warm_detector_calls"],
                e["index_hits"],
                e["index_skips"],
                e["skip_rate"],
                e["identical"],
                e["gated"],
            ]
            for e in rows
        ],
    )
    print_table(
        "Warm start (shared cache preloaded from the store, index bypassed)",
        ["frames loaded", "load s", "query s", "detector calls", "cache hits"],
        [
            [
                warm_start["frames_loaded"],
                warm_start["warm_start_seconds"],
                warm_start["query_seconds"],
                warm_start["detector_calls"],
                warm_start["shared_cache_hits"],
            ]
        ],
    )

    report = {
        "scenario": SCENARIO,
        "frames": num_frames,
        "range_size": RANGE_SIZE,
        "seconds_per_frame": seconds_per_frame,
        "build_seconds": build_seconds,
        "builds": build_reports,
        "workloads": rows,
        "warm_start": warm_start,
    }
    atomic_write_text(REPO_ROOT / "BENCH_index.json", json.dumps(report, indent=2))

    failures = []
    for e in rows:
        label = e["workload"]
        if not e["identical"]:
            failures.append(f"{label}: index-served result != index-less result")
        if e["warm_detector_calls"] != 0:
            failures.append(
                f"{label}: warm run paid {e['warm_detector_calls']} detector "
                "calls (index-served queries must pay none)"
            )
        if e["gated"] == "speedup" and e["speedup"] < MIN_SPEEDUP:
            failures.append(
                f"{label}: index-served speedup {e['speedup']:.2f}x "
                f"< {MIN_SPEEDUP}x over the index-less run"
            )
        if e["gated"] == "skip_rate" and e["skip_rate"] < MIN_SKIP_RATE:
            failures.append(
                f"{label}: sketch proofs skipped only "
                f"{e['skip_rate']:.0%} of frames (need >= {MIN_SKIP_RATE:.0%})"
            )
    if warm_start["detector_calls"] != 0:
        failures.append(
            f"warm start: hot query paid {warm_start['detector_calls']} "
            "detector calls with the index view bypassed"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
