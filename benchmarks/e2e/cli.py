"""One command for the whole benchmark.

With ``--workload`` it runs that workload in this process and prints, as the
last line of stdout, one JSON object ``{correct, attempted, failed, metrics}``
— the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without it, it runs every workload both ways, each in a fresh
process, and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
#: Git-ignored: raw samples, span dumps and temporary stores of the runs.
OUTPUT_DIR = REPO_ROOT / ".benchmarks" / "e2e"
HISTORY = HERE / "history.jsonl"
CALIBRATION = HERE / "calibration.json"

#: One BLAS thread: on a 2-core box the mix runs faster and far steadier when
#: numpy does not compete with the second client or the shard workers.
ENV_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Below this share of aggregates within their error bound the run fails.
MIN_WITHIN_BOUND = 0.80
CALIBRATION_SETS = 5


def pin_environment() -> None:
    """Must run before numpy is imported; subprocesses inherit it."""
    os.environ.update(ENV_PINS)


# -- one workload, in this process -----------------------------------------------------


def run_phase(name: str, seed: int, seconds: float, traced: bool, setups: int, scratch: Path):
    """Set up (``setups`` times, keeping the last), warm up, measure, tear down."""
    from .layers import Recorder, install
    from .metrics import Phase, kind_breakdown, merge_totals, span_totals
    from .workloads import WORKLOADS

    recorder = Recorder() if traced else None
    restore = install(recorder) if recorder is not None else None
    try:
        setup_seconds = []
        for attempt in range(setups):
            workload = WORKLOADS[name](seed, scratch / f"{name}-{attempt}", recorder)
            if recorder is not None:
                recorder.default_op = "setup"
            started = time.perf_counter()
            try:
                workload.setup()
            except BaseException:
                workload.teardown()
                raise
            setup_seconds.append(time.perf_counter() - started)
            if attempt < setups - 1:
                workload.teardown()
        try:
            if recorder is not None:
                recorder.default_op = "warmup"
            workload.warm_up()
            if recorder is not None:
                recorder.default_op = None
            samples, wall = workload.run(seconds)
        finally:
            workload.teardown()
    finally:
        if restore is not None:
            restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase = Phase(
        samples=samples,
        wall=wall,
        setup_seconds=setup_seconds,
        peak_rss_mb=rss_mb + workload.extras.pop("server_peak_rss_mb", 0.0),
        extras=workload.extras,
    )
    dumps: dict[str, Any] = {}
    if recorder is not None:
        # Each dump with the kind of each measured op it recorded: the runner
        # keys spans by op number, the server by query id.
        dumps["runner"] = recorder.dump()
        parts = [(dumps["runner"], {str(s.op_id): s.kind for s in samples})]
        server_dump = workload.extras.pop("server_dump", None)
        if server_dump is not None:
            dumps["server"] = server_dump
            parts.append((server_dump, {workload.query_ids[s.op_id]: s.kind for s in samples
                                        if s.op_id in workload.query_ids}))
        phase.measured = merge_totals(*(span_totals(d, set(ops)) for d, ops in parts))
        phase.overall = merge_totals(*(span_totals(d, None) for d, _ops in parts))
        phase.span_count = sum(
            1 for d, ops in parts for span in d["spans"] if str(span[3]) in ops
        )
        phase.breakdown = kind_breakdown(parts, samples)
    return phase, dumps


def child_pids() -> list[int]:
    """Live or unreaped processes whose parent is this one."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                # "pid (comm) state ppid ...": comm may hold spaces and brackets.
                fields = (entry / "stat").read_text().rpartition(")")[2].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                found.append(int(entry.name))
    return found


def stop_child_processes() -> None:
    """End and reap every process this one started, on every path out.

    The workloads stop their own (shard workers, the wire server); what is
    left is multiprocessing's resource tracker, started by the first
    shared-memory segment of ``sharded_scan``.  It only ends once this
    process has closed its pipe, so without this it outlives the run by the
    moment it takes to notice — long enough to be found still running.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for worker in multiprocessing.active_children():
        worker.terminate()
        worker.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the pipe and waits for the tracker to exit
    for pid in child_pids():
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass  # reaped in the meantime


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """The driver's unit of work; returns the JSON object of the last line."""
    from .metrics import end_to_end, per_layer, units

    scratch = OUTPUT_DIR / "tmp" / str(os.getpid())
    try:
        if trace:
            # Both phases in one process, each with its own set-up: the first
            # gives the untraced baseline the overhead ratio is taken against.
            untraced, _ = run_phase(name, seed, seconds / 2, False, 1, scratch)
            traced, dumps = run_phase(name, seed, seconds / 2, True, 1, scratch)
            phases = [untraced, traced]
            values = per_layer(untraced, traced)
        else:
            phase, dumps = run_phase(name, seed, seconds, False, SETUP_REPEATS, scratch)
            phases = [phase]
            values = end_to_end(phase)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # unless another run is using it
        except OSError:
            pass

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    verdicts = [s.within_bound for p in phases for s in p.samples if s.within_bound is not None]
    within = sum(verdicts) / len(verdicts) if verdicts else 1.0
    correct = failed == 0 and within >= MIN_WITHIN_BOUND

    unit_of = units()
    print(f"workload {name}  seed {seed}  trace {trace}  env {ENV_PINS}")
    for p in phases:
        print(
            f"  attempted {p.attempted}  succeeded {p.attempted - p.failed}  "
            f"failed {p.failed}  measured wall {p.wall:.2f} s"
        )
        for reason in sorted({r for s in p.samples for r in s.failures}):
            print(f"  FAILED: {reason}")
    print(f"  aggregates within their error bound: {within:.3f} (fails below {MIN_WITHIN_BOUND})")
    for kind, rows in phases[-1].breakdown.items():
        print(f"  {kind}: self s/op (whole span s/op), the six largest")
        for span_name, own, whole in rows[:6]:
            print(f"      {span_name:<28} {own:.4f} ({whole:.4f})")
    for metric, value in values.items():
        print(f"  {metric:<36} {value:>14.6g} {unit_of[metric]}")

    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    raw = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "phases": [
            {
                "wall": p.wall, "setup_seconds": p.setup_seconds,
                "samples": [
                    {"op": s.op_id, "kind": s.kind, "wall": s.wall, "failures": s.failures,
                     "sim_seconds": s.sim_seconds, "detector_calls": s.detector_calls,
                     "extra": s.extra}
                    for s in p.samples
                ],
            }
            for p in phases
        ],
        "spans": dumps,
    }
    (OUTPUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(raw))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of[m]} for m, v in values.items()},
    }


# -- every workload, each in a fresh process -------------------------------------------


def run_set(seed: int, seconds: float, traces: tuple[int, ...]) -> dict[str, dict[str, Any]]:
    """``{workload: {metric: value, ..., "correct": bool}}`` for one full set."""
    from .workloads import WORKLOADS

    results: dict[str, dict[str, Any]] = {}
    for name in WORKLOADS:
        merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0}
        for trace in traces:
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                outcome = json.loads(lines[-1])
            except (IndexError, ValueError):  # it crashed before its result line
                print(completed.stdout[-2000:], completed.stderr[-2000:], file=sys.stderr)
                merged["correct"] = False
                continue
            merged["correct"] = merged["correct"] and outcome["correct"]
            merged["attempted"] += outcome["attempted"]
            merged["failed"] += outcome["failed"]
            merged.update({m: v["value"] for m, v in outcome["metrics"].items()})
        results[name] = merged
    return results


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def calibrate(seed: int, seconds: float) -> int:
    """Five full sets on one commit; each end-to-end metric's
    ``(max - min) / median`` per workload goes beside its bound."""
    import statistics

    from .metrics import END_TO_END

    sets = [run_set(seed, seconds, (0,)) for _ in range(CALIBRATION_SETS)]
    report: dict[str, Any] = {
        "commit": commit_id(), "seed": seed, "seconds": seconds, "sets": CALIBRATION_SETS,
        "metrics": {},
    }
    for metric, _unit, _better, bound in END_TO_END:
        spreads = {}
        for workload in sets[0]:
            values = [s[workload][metric] for s in sets if metric in s[workload]]
            if len(values) == CALIBRATION_SETS:
                spreads[workload] = (max(values) - min(values)) / statistics.median(values)
        report["metrics"][metric] = {"bound": bound, "spread": spreads}
        print(f"{metric:<20} bound {bound:.2f}  " + "  ".join(
            f"{w} {s:.3f}" for w, s in spreads.items()))
    CALIBRATION.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(s[w]["correct"] for s in sets for w in s) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", default=None, help="one workload; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--record", action="store_true",
                        help=f"append this run to {HISTORY.name}")
    parser.add_argument("--calibrate", action="store_true",
                        help=f"run {CALIBRATION_SETS} sets, write {CALIBRATION.name}")
    args = parser.parse_args(argv)
    pin_environment()
    trace = 1 if args.traced else args.trace

    if args.calibrate:
        return calibrate(args.seed, args.seconds)

    if args.workload is not None:
        from .workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
        try:
            outcome = run_workload(args.workload, args.seed, args.seconds, trace or 0)
        finally:
            stop_child_processes()
        print(json.dumps(outcome), flush=True)
        return 0 if outcome["correct"] else 1

    results = run_set(args.seed, args.seconds, (0, 1) if trace is None else (trace,))
    if args.record:
        entry = {
            "commit": commit_id(), "seed": args.seed, "seconds": args.seconds,
            "nproc": os.cpu_count(), "env": ENV_PINS, "workloads": results,
        }
        with HISTORY.open("a") as history:
            history.write(json.dumps(entry, sort_keys=True) + "\n")
    for name, merged in results.items():
        print(f"{name}: attempted {merged['attempted']}  failed {merged['failed']}  "
              f"{'ok' if merged['correct'] else 'INCORRECT'}")
    return 0 if all(merged["correct"] for merged in results.values()) else 1
