"""Self-test of the benchmark harness (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.results import ExactResult, ScrubbingQueryResult
from repro.metrics.runtime import ExecutionLedger
from repro.service.protocol import result_fingerprint, result_to_json

from . import checks, cli, layers, metrics, ops, workloads

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]


# -- op list ---------------------------------------------------------------------------


def test_op_list_is_a_pure_function_of_the_seed():
    for kinds in (ops.LIVE_KINDS, ops.INDEXED_KINDS, ops.SHARDED_KINDS):
        first = [ops.block(7, i, kinds) for i in range(20)]
        again = [ops.block(7, i, kinds) for i in range(20)]
        assert first == again
        assert first != [ops.block(8, i, kinds) for i in range(20)]
        for one in first:
            assert sorted(op.kind for op in one) == sorted(op.kind for op in kinds)
    assert len({tuple(ops.block(7, i, ops.INDEXED_KINDS)) for i in range(20)}) > 1


def test_query_text_names_the_videos_first_class():
    videos = ops.generate_videos(64)
    text = ops.Op("scrubbing").text(videos)
    assert f"FROM {ops.SCENARIO}" in text and "class='boat'" in text
    assert "class='car'" in ops.Op("selection", video=ops.SPARSE).text(videos)


# -- correctness checks fail on planted bad results ------------------------------------


def scrubbing_result(frames):
    return ScrubbingQueryResult(
        kind="scrubbing", method="importance", ledger=ExecutionLedger(),
        frames=list(frames), limit=3,
    )


def test_scrubbing_check_catches_each_planted_fault():
    counts = np.zeros(200, dtype=np.int64)
    counts[[10, 50, 90, 130]] = 3
    good = scrubbing_result([10, 50, 90])
    assert checks.check_scrubbing(good, counts, 3, 3, 30) is None
    below = checks.check_scrubbing(scrubbing_result([10, 50, 91]), counts, 3, 3, 30)
    assert below is not None and "predicate" in below
    counts[60] = 3
    gap = checks.check_scrubbing(scrubbing_result([10, 50, 60]), counts, 3, 3, 30)
    assert gap is not None and "GAP" in gap
    early = checks.check_scrubbing(scrubbing_result([10, 50]), counts, 3, 3, 30)
    assert early is not None and "still qualifies" in early
    # Fewer than LIMIT is right when nothing else is a gap away from a hit.
    counts[:] = 0
    counts[[10, 20]] = 3
    assert checks.check_scrubbing(scrubbing_result([10]), counts, 3, 3, 30) is None


def test_detector_call_on_an_index_served_op_is_caught():
    clean = ExactResult(kind="exact", method="exhaustive", ledger=ExecutionLedger())
    assert checks.check_no_detector_calls(clean) is None
    paid = ExactResult(
        kind="exact", method="exhaustive", ledger=ExecutionLedger(detector_calls=1)
    )
    assert "1 detector calls" in checks.check_no_detector_calls(paid)


def test_mutated_fingerprint_and_wire_payload_are_caught():
    result = ExactResult(kind="exact", method="exhaustive", ledger=ExecutionLedger(), value=2.0)
    reference = result_fingerprint(result)
    assert checks.check_fingerprint(result, reference) is None
    result.value = 3.0
    assert checks.check_fingerprint(result, reference) is not None
    payload = result_to_json(result)
    assert checks.check_wire_roundtrip(payload) is None
    payload["smuggled"] = 1
    assert checks.check_wire_roundtrip(payload) is not None


def test_only_sampled_aggregates_count_towards_the_bound():
    from repro.core.results import AggregateResult

    sampled = AggregateResult(kind="aggregate", method="control_variates",
                              value=1.0, error_tolerance=0.1)
    assert checks.aggregate_within_bound(sampled, 1.05) is True
    assert checks.aggregate_within_bound(sampled, 1.2) is False
    rewrite = AggregateResult(kind="aggregate", method="specialized_rewrite",
                              value=1.0, error_tolerance=0.1)
    assert checks.aggregate_within_bound(rewrite, 1.2) is None
    assert checks.aggregate_error(rewrite, 1.2) == pytest.approx(0.2)


# -- layer wrappers --------------------------------------------------------------------


def patched_attributes():
    from repro.api import session
    from repro.catalog.statistics import StatisticsCatalog
    from repro.core.events import ExecutionStream
    from repro.frameql import parser
    from repro.index.view import IndexView
    from repro.service import manager, protocol
    from repro.video.geometry import BoundingBox

    return {
        "parser.parse": parser.parse,
        "session.parse": session.parse,
        "manager.event_to_json": manager.event_to_json,
        "protocol.event_to_json": protocol.event_to_json,
        "IndexView.get": vars(IndexView)["get"],
        "BoundingBox.iou": vars(BoundingBox)["iou"],
        "ExecutionStream.__next__": vars(ExecutionStream)["__next__"],
        "StatisticsCatalog.load": vars(StatisticsCatalog)["load"],
    }


def test_wrappers_restore_originals_and_leave_results_alone():
    engine = BlazeIt(config=BlazeItConfig(seed=3))
    engine.register_scenario(ops.SCENARIO, num_frames=300)
    query = "SELECT * FROM rialto WHERE class='boat'"
    untraced = result_fingerprint(engine.session().prepare(query).stream().drain())

    before = patched_attributes()
    recorder = layers.Recorder()
    restore = layers.install(recorder)
    try:
        during = patched_attributes()
        assert all(during[name] is not before[name] for name in before)
        with recorder.span("op"):
            traced = result_fingerprint(engine.session().prepare(query).stream().drain())
    finally:
        restore()
    assert traced == untraced
    after = patched_attributes()
    assert all(after[name] is before[name] for name in before)

    names = {span[2] for span in recorder.spans}
    assert {"op", "frameql.parse", "api.execute", "optimizer.run", "detection.detect",
            "tracking.resolve"} <= names
    totals = metrics.span_totals(recorder.dump(), None)
    assert totals["tracking.iou_calls"]["value"] > 0
    assert totals["detection.frames_detected"]["value"] == 300


def test_self_times_of_nested_spans_sum_to_the_root():
    recorder = layers.Recorder()

    def leaf():
        time.sleep(0.002)

    tallied = recorder.wrap_tally("tallied", recorder.wrap_span("inside_tally", leaf))

    def middle():
        time.sleep(0.001)
        for _ in range(3):
            tallied()

    def numbers():
        for i in range(3):
            time.sleep(0.001)
            yield i

    wrapped_middle = recorder.wrap_span("middle", middle)
    wrapped_numbers = recorder.wrap_generator("numbers", numbers)
    with recorder.span("root"):
        wrapped_middle()
        assert list(wrapped_numbers()) == [0, 1, 2]
        time.sleep(0.001)

    root = next(span for span in recorder.spans if span[2] == "root")
    sums = layers.self_seconds_by_root(recorder.spans)
    dump = recorder.dump()
    tally_self = sum(entry[2] for entry in dump["tallies"].values())
    # Spans nested in a tally hang off the tally's (unrecorded) frame, so they
    # are roots of their own; everything together still adds up to the root.
    assert sum(sums.values()) + tally_self == pytest.approx(root[6] - root[5], abs=1e-9)
    middle_span = next(span for span in recorder.spans if span[2] == "middle")
    assert middle_span[1] == root[0]
    assert middle_span[7] < (middle_span[6] - middle_span[5]) / 2  # children took most
    assert dump["tallies"]["None|tallied"][0] == 3


def test_recorder_attributes_spans_to_the_current_op():
    recorder = layers.Recorder()
    recorder.default_op = 4
    with recorder.span("a"):
        pass
    with recorder.op("q9"), recorder.span("b"):
        recorder.count("things", 2)
    by_name = {span[2]: span[3] for span in recorder.spans}
    assert by_name == {"a": 4, "b": "q9"}
    assert metrics.span_totals(recorder.dump(), {"q9"})["things"]["value"] == 2


# -- BENCHMARK.json --------------------------------------------------------------------


def test_benchmark_json_lists_exactly_what_the_runner_emits():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "direct_live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- clean-up, including on Ctrl-C -----------------------------------------------------


def session_processes(session: int) -> list[int]:
    """Processes, zombies included, of the session a runner was started in."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rpartition(")")[2].split()
            except OSError:
                continue
            if int(fields[3]) == session:
                found.append(int(entry.name))
    return found


def interrupt_mid_run(workload: str, ready) -> subprocess.Popen:
    """Start a long run in a session of its own, wait until ``ready(pid)``,
    send it SIGINT."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "60", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    deadline = time.monotonic() + 60
    while not ready(process.pid):
        assert process.poll() is None and time.monotonic() < deadline
        time.sleep(0.1)
    time.sleep(1.0)
    process.send_signal(signal.SIGINT)
    process.wait(timeout=60)
    return process


def server_processes(scratch: Path) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"serve" in command and str(scratch).encode() in command:
                found.append(int(entry.name))
    return found


def scratch_of(pid: int) -> Path:
    return cli.OUTPUT_DIR / "tmp" / str(pid)


def test_ctrl_c_stops_the_wire_server_and_removes_its_index():
    process = interrupt_mid_run("wire_served", lambda pid: server_processes(scratch_of(pid)))
    assert process.returncode != 0
    assert server_processes(scratch_of(process.pid)) == []
    assert session_processes(process.pid) == []
    assert not scratch_of(process.pid).exists()


def test_ctrl_c_leaves_no_shared_memory_behind():
    def segments(pid: int) -> list[str]:
        return [n for n in os.listdir("/dev/shm") if n.startswith(f"repro_shard_{pid}_")]

    process = interrupt_mid_run("sharded_scan", segments)
    assert process.returncode != 0
    assert segments(process.pid) == []
    assert session_processes(process.pid) == []
    assert not scratch_of(process.pid).exists()


def test_a_finished_run_leaves_no_process_behind():
    """Not even multiprocessing's resource tracker, which ``sharded_scan``
    starts and which by itself only ends a moment after its parent."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "sharded_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    assert process.wait(timeout=120) == 0
    assert session_processes(process.pid) == []
