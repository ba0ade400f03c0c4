"""Query service benchmark: wire fidelity, throughput and time-to-first-event.

Boots a real service (``python -m repro.service``) as a subprocess, then
gates two claims:

1. **Wire fidelity.**  All four query classes executed over HTTP against
   the server are byte-identical (canonical serialized form, wall-clock
   excluded) to the same call sequence against an identically-seeded
   in-process engine.

2. **Concurrent throughput.**  With a paced detector (per-frame simulated
   inference latency — the resource concurrent queries overlap), aggregate
   throughput at 4 concurrent clients must be >= 2x the single-client
   serialized rate.  Time-to-first-event percentiles at 1/4/16 clients are
   reported alongside.

Results are written to ``BENCH_service.json`` at the repo root.

Run standalone (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick] [--frames N]

Exits non-zero when fidelity or the throughput gate fails — what the CI
service job gates on.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.persist import atomic_write_text
from repro.service.client import ServiceClient
from repro.service.protocol import result_fingerprint
from repro.video.scenarios import generate_scenario

from reproduction import print_table

SCENARIO = "rialto"
SEED = 7
MIN_SPEEDUP_AT_4 = 2.0
CLIENT_COUNTS = [1, 4, 16]
QUERIES_PER_CLIENT = 3


def launch_server(
    frames: int, latency: float, slots: int
) -> tuple[subprocess.Popen, str, int]:
    """Start ``python -m repro.service`` and wait for its listening banner."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--scenario",
            SCENARIO,
            "--frames",
            str(frames),
            "--seed",
            str(SEED),
            "--port",
            "0",
            "--slots",
            str(slots),
            "--queue-depth",
            "64",
            "--detector-latency",
            str(latency),
            "--heartbeat",
            "1.0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(REPO_ROOT),
    )
    assert process.stdout is not None
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"service exited during startup (code {process.poll()})"
            )
        match = re.search(r"listening on http://([\d.]+):(\d+)", line)
        if match:
            # Drain stdout in the background so the server never blocks on a
            # full pipe.
            threading.Thread(
                target=lambda: [None for _ in process.stdout], daemon=True
            ).start()
            return process, match.group(1), int(match.group(2))
    raise RuntimeError("service did not report a listening address in time")


def reference_fingerprints(frames: int, queries: list[str]) -> list[str]:
    """The in-process ground truth: same seed, same registration, one session."""
    engine = BlazeIt(config=BlazeItConfig(seed=SEED))
    engine.register_scenario(SCENARIO, name="v", num_frames=frames)
    with engine.session() as session:
        return [
            result_fingerprint(session.prepare(query).execute())
            for query in queries
        ]


def run_smoke(host: str, port: int, frames: int) -> list[dict]:
    cls = generate_scenario(SCENARIO, "test", 32).object_class_names[0]
    queries = [
        ("aggregate", f"SELECT FCOUNT(*) FROM v WHERE class = '{cls}'"),
        ("selection", f"SELECT * FROM v WHERE class = '{cls}'"),
        ("exact", "SELECT * FROM v"),
        (
            "scrubbing",
            f"SELECT timestamp FROM v GROUP BY timestamp "
            f"HAVING COUNT(class = '{cls}') >= 1 LIMIT 5 GAP 30",
        ),
    ]
    refs = reference_fingerprints(frames, [q for _, q in queries])
    client = ServiceClient(host, port, timeout=600.0)
    client.create_tenant("smoke")
    session_id = client.create_session("smoke")
    entries = []
    for (name, query), ref in zip(queries, refs, strict=True):
        started = time.perf_counter()
        result = client.execute(session_id, query)
        entries.append(
            {
                "workload": name,
                "identical": result_fingerprint(result) == ref,
                "detector_calls": result.execution_ledger.detector_calls,
                "wire_seconds": time.perf_counter() - started,
            }
        )
    return entries


def run_throughput(host: str, port: int, clients: int) -> dict:
    """``clients`` concurrent clients, each its own tenant+session, each
    running ``QUERIES_PER_CLIENT`` detector-bound scans."""
    cls = generate_scenario(SCENARIO, "test", 32).object_class_names[0]
    query = f"SELECT * FROM v WHERE class = '{cls}'"
    ttfe: list[float] = []
    errors: list[str] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        try:
            client = ServiceClient(host, port, timeout=600.0)
            client.create_tenant(f"bench-{clients}-{index}")
            session_id = client.create_session(f"bench-{clients}-{index}")
            for _ in range(QUERIES_PER_CLIENT):
                started = time.perf_counter()
                status = client.submit(session_id, query=query, wait=False)
                first_event_at: float | None = None
                for _index, _event in client.events(
                    str(status["query_id"]), decode=False
                ):
                    if first_event_at is None:
                        first_event_at = time.perf_counter()
                with lock:
                    ttfe.append((first_event_at or time.perf_counter()) - started)
        except Exception as exc:  # report, don't hang the bench
            with lock:
                errors.append(f"client {index}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise RuntimeError("; ".join(errors))
    total = clients * QUERIES_PER_CLIENT
    ttfe.sort()
    return {
        "clients": clients,
        "queries": total,
        "seconds": elapsed,
        "queries_per_second": total / elapsed,
        "ttfe_p50": statistics.median(ttfe),
        "ttfe_p95": ttfe[min(len(ttfe) - 1, int(0.95 * len(ttfe)))],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--frames", type=int, default=None)
    args = parser.parse_args()
    frames = args.frames or (300 if args.quick else 800)
    latency = 0.002 if args.quick else 0.003

    process, host, port = launch_server(frames, latency, slots=16)
    try:
        smoke = run_smoke(host, port, frames)
        throughput = [run_throughput(host, port, n) for n in CLIENT_COUNTS]
    finally:
        process.terminate()
        process.wait(timeout=30)

    baseline = throughput[0]["queries_per_second"]
    for entry in throughput:
        entry["speedup_vs_1_client"] = entry["queries_per_second"] / baseline

    print_table(
        f"Wire fidelity ({frames} frames, seed {SEED})",
        ["workload", "identical", "detector calls", "wire s"],
        [
            [e["workload"], e["identical"], e["detector_calls"], e["wire_seconds"]]
            for e in smoke
        ],
    )
    print_table(
        f"Service throughput ({QUERIES_PER_CLIENT} queries/client, "
        f"{latency * 1000:g} ms/frame detector)",
        ["clients", "queries", "seconds", "qps", "speedup", "ttfe p50", "ttfe p95"],
        [
            [
                e["clients"],
                e["queries"],
                e["seconds"],
                e["queries_per_second"],
                e["speedup_vs_1_client"],
                e["ttfe_p50"],
                e["ttfe_p95"],
            ]
            for e in throughput
        ],
    )

    report = {
        "scenario": SCENARIO,
        "frames": frames,
        "seed": SEED,
        "detector_latency": latency,
        "smoke": smoke,
        "throughput": throughput,
    }
    atomic_write_text(REPO_ROOT / "BENCH_service.json", json.dumps(report, indent=2))

    failures = []
    for entry in smoke:
        if not entry["identical"]:
            failures.append(f"{entry['workload']}: wire result != in-process")
    at_4 = next(e for e in throughput if e["clients"] == 4)
    if at_4["speedup_vs_1_client"] < MIN_SPEEDUP_AT_4:
        failures.append(
            f"4-client throughput only {at_4['speedup_vs_1_client']:.2f}x the "
            f"serialized rate (need >= {MIN_SPEEDUP_AT_4}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
