"""The five workloads.  Each is a closed loop: a caller sends its next op only
after the previous one completed, as a FrameQL session does.

A workload is built once per measured phase: ``setup()`` (timed, reported as
``setup_s``) builds what a caller needs before its first query; ``warm_up()``
(untimed) executes every prepared query once and takes the reference answers
the checks compare against; ``run_op()`` executes and checks one op;
``teardown()`` releases everything, including on Ctrl-C.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.api.hints import QueryHints
from repro.api.session import PreparedQuery
from repro.catalog.statistics import StatisticsCatalog
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.labeled_set import LabeledSet
from repro.core.results import QueryResult, SelectionResult
from repro.detection.simulated import SimulatedDetector
from repro.parallel.cache import SharedDetectionCache
from repro.service.__main__ import PacedSimulatedDetector
from repro.service.client import ServiceClient
from repro.service.protocol import event_from_json, result_fingerprint

from . import checks
from .layers import Recorder
from .ops import (
    FINGERPRINT_SHAPES,
    INDEXED_KINDS,
    LIVE_KINDS,
    SCENARIO,
    SCRUB_GAP,
    SCRUB_LIMIT,
    SCRUB_MIN_COUNT,
    SHARDED_KINDS,
    SPARSE,
    Op,
    Videos,
    block,
    generate_videos,
)

_clock = time.perf_counter

#: Real per-frame latency of the sharded workload's detector.
PACED_SECONDS_PER_FRAME = 0.00025
SHARED_CACHE_BYTES = 256 << 20
WIRE_CLIENTS = os.cpu_count() or 2
WIRE_SLOTS = 2
#: No op of any workload takes a tenth of this; hitting it is a failed op.
OP_TIMEOUT_SECONDS = 60.0


@dataclass
class Sample:
    """What one op produced: the caller's wall and what the checks need."""

    kind: str
    wall: float
    failures: list[str] = field(default_factory=list)
    sim_seconds: float = 0.0
    detector_calls: int = 0
    within_bound: bool | None = None
    #: Workload-specific numbers (``ttfe``, ``ingest_wall``, ...), and the
    #: ledger counters the per-layer metrics are derived from.
    extra: dict[str, float] = field(default_factory=dict)
    op_id: Any = None


DETECTOR_COSTS = frozenset({"mask_rcnn", "fgfa", "yolov2"})


def ledger_extras(result: QueryResult) -> dict[str, float]:
    """Exact counters of one execution, read off its ledger."""
    ledger = result.execution_ledger
    charges = ledger.breakdown()
    extra = {
        "sim_detector_s": sum(v for k, v in charges.items() if k in DETECTOR_COSTS),
        "sim_training_s": charges.get("specialized_nn_train", 0.0),
        "sim_inference_s": charges.get("specialized_nn", 0.0),
        "index_hits": ledger.index_hits,
        "index_skips": ledger.index_skips,
        "exec_cache_hits": ledger.detection_cache_hits,
        "shared_cache_hits": ledger.shared_cache_hits,
        "frames_decoded": ledger.frames_decoded,
        "events_emitted": ledger.events_emitted,
        "server_wall": ledger.wall_seconds,
    }
    if isinstance(result, SelectionResult) and result.frames_scanned:
        extra["filter_pass"] = result.frames_after_filters
        extra["filter_scanned"] = result.frames_scanned
    samples_used = getattr(result, "samples_used", None)
    if samples_used is not None:
        extra["samples_used"] = samples_used
    frames = getattr(result, "frames", None)
    if frames is not None and result.kind == "scrubbing":
        extra["scrub_hits"] = len(frames)
        extra["scrub_verified"] = ledger.detector_calls + ledger.index_hits
    return extra


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Workload:
    """Shared plumbing: inputs, reference answers and the op checks."""

    name = ""
    why = ""
    kinds: tuple[Op, ...] = ()
    #: Ops that must be answered without a single detector call.
    zero_detector_calls = False

    def __init__(self, seed: int, scratch: Path, recorder: Recorder | None = None) -> None:
        self.seed = seed
        self.scratch = scratch
        self.recorder = recorder
        self.videos: Videos | None = None
        self.references: dict[str, str] = {}
        self.truth: dict[str, np.ndarray] = {}
        #: Workload-level numbers for the metrics (index size, server sums).
        self.extras: dict[str, Any] = {}
        self._op_ids = 0

    # -- lifecycle -----------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run every op kind once, untimed, and keep the RNG-free fingerprints."""
        self._take_truth()
        for op in self.kinds:
            sample, result = self._execute(op)
            if result is not None and op.shape in FINGERPRINT_SHAPES:
                self.references[op.kind] = result_fingerprint(result)
            if sample.failures:
                raise RuntimeError(f"warm-up of {op.kind} failed: {sample.failures}")

    def teardown(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- measured loop -------------------------------------------------------------

    def run(self, seconds: float) -> tuple[list[Sample], float]:
        """Whole blocks of ops until ``seconds`` have passed; returns the
        samples and the measured wall."""
        samples: list[Sample] = []
        started = _clock()
        index = 0
        while True:
            for op in block(self.seed, index, self.kinds):
                samples.append(self.run_op(op))
            index += 1
            if _clock() - started >= seconds:
                return samples, _clock() - started

    def run_op(self, op: Op) -> Sample:
        op_id = self._op_ids
        self._op_ids += 1
        if self.recorder is None:
            sample, result = self._execute(op)
        else:
            self.recorder.default_op = op_id
            with self.recorder.span("op"):
                sample, result = self._execute(op)
            self.recorder.default_op = None
        sample.op_id = op_id
        if result is not None:
            self._check(op, result, sample)
        return sample

    # -- helpers -------------------------------------------------------------------

    def _execute(self, op: Op) -> tuple[Sample, QueryResult | None]:
        raise NotImplementedError

    def _timed_drain(self, op: Op, prepared: PreparedQuery, **stream_kwargs: Any):
        """The in-process op: drain the prepared query's event stream."""
        started = _clock()
        stream = prepared.stream(**stream_kwargs)
        try:
            result = stream.drain()
        except Exception as exc:  # a failed op, whatever the program raised
            return Sample(op.kind, _clock() - started, [f"{type(exc).__name__}: {exc}"]), None
        finally:
            stream.close()
        sample = Sample(op.kind, _clock() - started)
        self._account(sample, result)
        return sample, result

    def _account(self, sample: Sample, result: QueryResult) -> None:
        sample.sim_seconds = result.runtime_seconds
        sample.detector_calls = result.execution_ledger.detector_calls
        sample.extra.update(ledger_extras(result))

    def _take_truth(self) -> None:
        assert self.videos is not None
        reference = SimulatedDetector.mask_rcnn()
        for name in {op.video for op in self.kinds}:
            self.truth[name] = checks.truth_counts(
                self.videos.by_name(name), reference, self.videos.class_of(name)
            )

    def _check(self, op: Op, result: QueryResult, sample: Sample) -> None:
        reasons = sample.failures
        if op.shape in FINGERPRINT_SHAPES and op.kind in self.references:
            reasons.append(checks.check_fingerprint(result, self.references[op.kind]))
        if op.shape == "scrubbing":
            reasons.append(
                checks.check_scrubbing(
                    result, self.truth[op.video], SCRUB_MIN_COUNT, SCRUB_LIMIT, SCRUB_GAP
                )
            )
        if self.zero_detector_calls:
            reasons.append(checks.check_no_detector_calls(result))
        sample.failures = [reason for reason in reasons if reason]
        if op.shape.startswith("aggregate"):
            exact = float(self.truth[op.video].mean())
            sample.within_bound = checks.aggregate_within_bound(result, exact)
            if result.method == "specialized_rewrite":
                sample.extra["rewrite_abs_error"] = checks.aggregate_error(result, exact)

    def _engine(self, **kwargs: Any) -> BlazeIt:
        return BlazeIt(config=BlazeItConfig(seed=self.seed), **kwargs)

    def _register(self, engine: BlazeIt, labeled: LabeledSet | None = None) -> None:
        """Register the scenario (with its labeled set) and the sparse video."""
        assert self.videos is not None
        v = self.videos
        if labeled is None:
            engine.register_video(SCENARIO, v.test, v.train, v.heldout)
        else:
            engine.register_video(SCENARIO, v.test)
            engine.attach_labeled_set(SCENARIO, labeled)
        engine.register_video(SPARSE, v.sparse)

    def _prepare_all(self, session: Any, **hint_kwargs: Any) -> dict[str, PreparedQuery]:
        assert self.videos is not None
        hints = QueryHints(**hint_kwargs) if hint_kwargs else None
        return {
            op.kind: session.prepare(op.text(self.videos), hints=hints) for op in self.kinds
        }


class DirectLive(Workload):
    name = "direct_live"
    why = (
        "the paper's setting: live simulated detector, no index, no cache, one caller; "
        "training and detection are charged to every query"
    )
    kinds = LIVE_KINDS

    def setup(self) -> None:
        self.videos = generate_videos()
        self.engine = self._engine()
        self._register(self.engine)
        self.session = self.engine.session()
        self.prepared = self._prepare_all(self.session)

    def _execute(self, op: Op):
        return self._timed_drain(op, self.prepared[op.kind])


def build_indexes(workload: Workload, store: Path) -> BlazeIt:
    """Ingest both videos into a fresh store; returns the builder engine."""
    builder = workload._engine(index_dir=store)
    workload._register(builder)
    frames = sum(builder.build_index(name)["num_frames"] for name in (SCENARIO, SPARSE))
    workload.extras.update(index_bytes=directory_bytes(store), index_frames=frames)
    return builder


class IndexServed(Workload):
    name = "index_served"
    why = (
        "the same queries answered from the persistent index with 0 detector calls: "
        "what remains is index decode, object churn, tracking and retraining"
    )
    kinds = INDEXED_KINDS
    zero_detector_calls = True

    def setup(self) -> None:
        self.videos = generate_videos()
        store = self.scratch / "store"
        builder = build_indexes(self, store)
        self.engine = self._engine(index_dir=store)
        self._register(self.engine, builder.labeled_set(SCENARIO))
        self.session = self.engine.session()
        self.prepared = self._prepare_all(self.session)

    def _execute(self, op: Op):
        return self._timed_drain(op, self.prepared[op.kind])


class ShardedScan(Workload):
    name = "sharded_scan"
    why = (
        "the three scan shapes at parallelism 2 on the thread and the process backend "
        "over a paced detector: the only workload where the parallel layer works"
    )
    kinds = SHARDED_KINDS

    def setup(self) -> None:
        self.videos = generate_videos()
        v = self.videos
        # The labeled set comes from the unpaced reference detector (same
        # identity), so set-up does not sleep through 6000 frames.
        labeled = LabeledSet.build(v.train, v.heldout, SimulatedDetector.mask_rcnn())
        # Module-level in the service CLI, so the process backend can pickle it;
        # same cache-key identity as the reference detector.
        self.engine = self._engine(detector=PacedSimulatedDetector(PACED_SECONDS_PER_FRAME))
        self._register(self.engine, labeled)
        self.session = self.engine.session()
        self.prepared = self._prepare_all(self.session)

    def warm_up(self) -> None:
        # Reference answers come from the sequential path: both backends must
        # reproduce them bit for bit.
        self._take_truth()
        for op in self.kinds:
            if op.variant != "threads":
                continue
            result = self.prepared[op.kind].stream(parallelism=1).drain()
            if op.shape in FINGERPRINT_SHAPES:
                fingerprint = result_fingerprint(result)
                self.references[op.kind] = fingerprint
                self.references[Op(op.shape, variant="processes").kind] = fingerprint

    def _execute(self, op: Op):
        return self._timed_drain(
            op, self.prepared[op.kind], parallelism=2, backend=op.variant
        )


class IngestBuild(Workload):
    name = "ingest_build"
    why = (
        "the write side of what index_served reads: index build, catalog and cache "
        "persistence in both formats, warm start, one query from the warmed cache"
    )
    kinds = (Op("exact", variant="ingest_cycle"),)
    zero_detector_calls = True

    def setup(self) -> None:
        self.videos = generate_videos()
        v = self.videos
        self.labeled = LabeledSet.build(v.train, v.heldout, SimulatedDetector.mask_rcnn())
        self._cycles = 0

    def _execute(self, op: Op):
        assert self.videos is not None
        directory = self.scratch / f"cycle-{self._cycles}"
        self._cycles += 1
        store = directory / "store"
        extra: dict[str, float] = {}
        started = _clock()
        try:
            cache = SharedDetectionCache(capacity_bytes=SHARED_CACHE_BYTES)
            builder = self._engine(index_dir=store, shared_cache=cache)
            self._register(builder, self.labeled)
            build_started = _clock()
            frames = sum(
                builder.build_index(name)["num_frames"] for name in (SCENARIO, SPARSE)
            )
            extra["ingest_wall"] = _clock() - build_started
            extra["ingest_frames"] = frames
            self.extras.update(index_bytes=directory_bytes(store), index_frames=frames)
            for fmt in ("json", "npz"):
                builder.catalog.save(directory / f"catalog.{fmt}", format=fmt)
                StatisticsCatalog.load(directory / f"catalog.{fmt}")
                cache.save(directory / f"cache.{fmt}", format=fmt)
                SharedDetectionCache.load(directory / f"cache.{fmt}")
            reader = self._engine(
                index_dir=store,
                shared_cache=SharedDetectionCache(capacity_bytes=SHARED_CACHE_BYTES),
            )
            self._register(reader, self.labeled)
            reader.warm_start()
            prepared = reader.session().prepare(
                op.text(self.videos), hints=QueryHints(use_index=False)
            )
            result = prepared.stream().drain()
        except Exception as exc:  # a failed op, whatever the program raised
            return Sample(op.kind, _clock() - started, [f"{type(exc).__name__}: {exc}"]), None
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        sample = Sample(op.kind, _clock() - started, extra=extra)
        self._account(sample, result)
        return sample, result


# -- over the wire ---------------------------------------------------------------------


def read_sse(response: http.client.HTTPResponse) -> tuple[bytes, float]:
    """Read an SSE response to its end; returns the bytes and the time the
    first event arrived.  Parsing waits until the clock has stopped."""
    chunks = []
    first_event_at = 0.0
    while not first_event_at:
        chunk = response.read1(1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
        if b"data:" in chunk:
            first_event_at = _clock()
    chunks.append(response.read())
    return b"".join(chunks), first_event_at


def parse_sse(raw: bytes) -> tuple[list[dict[str, Any]], dict[str, Any] | None]:
    """The event payloads of an SSE body, and the ``end`` marker's payload."""
    events: list[dict[str, Any]] = []
    end = None
    for record in raw.decode("utf-8").split("\n\n"):
        name = data = None
        for line in record.split("\n"):
            if line.startswith("event:"):
                name = line[6:].strip()
            elif line.startswith("data:"):
                data = line[5:].strip()
        if data is None:
            continue
        if name == "end":
            end = json.loads(data)
        else:
            events.append(json.loads(data))
    return events, end


class Server:
    """The ``serve.py`` subprocess: boot, address, peak RSS, span dump, stop."""

    def __init__(self, index_dir: Path, seed: int, dump: Path | None) -> None:
        package_parent = Path(__file__).resolve().parents[1]
        source = package_parent.parent / "src"
        command = [
            sys.executable, "-m", f"{Path(__file__).resolve().parent.name}.serve",
            "--index-dir", str(index_dir), "--seed", str(seed), "--slots", str(WIRE_SLOTS),
        ]
        if dump is not None:
            command += ["--dump", str(dump)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(package_parent), str(source)])
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
        )
        self.peak_rss_mb = 0.0
        try:
            self.host, self.port = self._wait_for_banner()
        except BaseException:  # Ctrl-C while it boots: do not leave it behind
            self.stop()
            raise

    def _wait_for_banner(self) -> tuple[str, int]:
        assert self.process.stdout is not None
        lines = []
        for line in self.process.stdout:
            lines.append(line)
            match = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if match:
                # Drain stdout so the server never blocks on a full pipe.
                threading.Thread(
                    target=lambda: [None for _ in self.process.stdout], daemon=True
                ).start()
                return match.group(1), int(match.group(2))
        raise RuntimeError("wire server exited during start-up:\n" + "".join(lines))

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                status = Path(f"/proc/{self.process.pid}/status").read_text()
                match = re.search(r"VmHWM:\s+(\d+) kB", status)
                if match:
                    self.peak_rss_mb = int(match.group(1)) / 1024.0
            except OSError:
                pass
            self.process.terminate()
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


#: Server-side waits, as the metrics registry names them -> as we report them.
SERVER_HISTOGRAMS = {
    "repro_admission_wait_seconds": "admission_wait_s",
    "repro_slot_wait_seconds": "slot_wait_s",
    "repro_ttfe_seconds": "server_ttfe_s",
}


class WireServed(Workload):
    name = "wire_served"
    why = (
        "the index-served engine behind the HTTP/SSE service, one closed-loop client per "
        "core: isolates codecs, admission, scheduler, SSE and GIL sharing"
    )
    #: The dense scenario only: at ~0.5 s an op over the wire, ten kinds
    #: would leave three samples each.
    kinds = LIVE_KINDS
    zero_detector_calls = True

    def setup(self) -> None:
        self.videos = generate_videos()
        store = self.scratch / "store"
        build_indexes(self, store)
        self.dump_path = self.scratch / "server-spans.json" if self.recorder else None
        self.server = Server(store, self.seed, self.dump_path)
        self.client = ServiceClient(
            self.server.host, self.server.port, timeout=OP_TIMEOUT_SECONDS
        )
        self.client.create_tenant("bench")
        self.sessions = [self.client.create_session("bench") for _ in range(WIRE_CLIENTS)]
        self.query_ids: dict[Any, str] = {}
        self.rejected = 0
        self._lock = threading.Lock()

    def warm_up(self) -> None:
        """Every session runs every query once (its context is per session),
        all sessions at once."""
        self._take_truth()
        errors: list[str] = []

        def warm(session: str) -> None:
            for op in self.kinds:
                sample, result = self._wire_op(op, session)
                if sample.failures or result is None:
                    errors.append(f"warm-up of {op.kind} failed: {sample.failures}")
                elif op.shape in FINGERPRINT_SHAPES:
                    self.references[op.kind] = result_fingerprint(result)

        threads = [threading.Thread(target=warm, args=(s,), daemon=True) for s in self.sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError("; ".join(errors))

    def teardown(self) -> None:
        """Stop the server (SIGTERM, then its span dump is on disk) before the
        scratch directory holding its index and dump goes."""
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.extras["server_peak_rss_mb"] = server.peak_rss_mb
            if self.dump_path is not None and self.dump_path.exists():
                self.extras["server_dump"] = json.loads(self.dump_path.read_text())
        super().teardown()

    def _registry_sums(self) -> dict[str, tuple[float, float]]:
        """``{histogram: (sum, count)}`` from the server's metrics registry
        (cumulative since boot, so the run takes a difference)."""
        histograms = self.client.healthz()["metrics"]["histograms"]
        return {
            name: (entry["sum"], entry["count"])
            for name, entry in histograms.items()
            if name in SERVER_HISTOGRAMS
        }

    def run(self, seconds: float) -> tuple[list[Sample], float]:
        """One closed-loop client thread per session until the deadline; a
        client finishes the op in flight, so the run ends within one op."""
        samples: list[list[Sample]] = [[] for _ in self.sessions]
        errors: list[BaseException] = []
        before = self._registry_sums()
        started = _clock()
        deadline = started + seconds

        def client(number: int, session: str) -> None:
            try:
                index = 0
                while True:
                    for op in block(self.seed * 1000 + number, index, self.kinds):
                        sample, result = self._wire_op(op, session)
                        if result is not None:
                            self._check(op, result, sample)
                        samples[number].append(sample)
                        if _clock() >= deadline:
                            return
                    index += 1
            except BaseException as exc:  # re-raised on the caller's thread
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(number, session), daemon=True)
            for number, session in enumerate(self.sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = _clock() - started
        if errors:
            raise errors[0]
        for name, (total, count) in self._registry_sums().items():
            earlier_total, earlier_count = before.get(name, (0.0, 0))
            if count > earlier_count:
                self.extras[SERVER_HISTOGRAMS[name]] = (total - earlier_total) / (
                    count - earlier_count
                )
        self.extras["rejected"] = self.rejected
        return [sample for per_client in samples for sample in per_client], wall

    def _wire_op(self, op: Op, session: str) -> tuple[Sample, QueryResult | None]:
        """``POST /queries`` (``wait=false``), then the SSE stream to its end
        marker; timed from request send to the last SSE byte."""
        assert self.videos is not None
        with self._lock:
            op_id = self._op_ids
            self._op_ids += 1
        started = _clock()
        try:
            status = self.client.submit(session, query=op.text(self.videos), wait=False)
            query_id = str(status["query_id"])
            connection = http.client.HTTPConnection(
                self.server.host, self.server.port, timeout=OP_TIMEOUT_SECONDS
            )
            try:
                connection.request("GET", f"/queries/{query_id}/events")
                response = connection.getresponse()
                raw, first_event_at = read_sse(response)
            finally:
                connection.close()
            finished = _clock()
            if response.status >= 400:
                raise RuntimeError(f"HTTP {response.status} on the event stream")
        except Exception as exc:  # HTTP error, timeout, refused admission
            if getattr(exc, "status", None) in (429, 503):
                with self._lock:
                    self.rejected += 1
            sample = Sample(op.kind, _clock() - started, [f"{type(exc).__name__}: {exc}"])
            sample.op_id = op_id
            return sample, None
        sample = Sample(op.kind, finished - started)
        sample.op_id = op_id
        self.query_ids[op_id] = query_id
        if first_event_at:
            sample.extra["ttfe"] = first_event_at - started
        sample.extra["wire_bytes"] = len(raw)
        decode_started = _clock()
        events, end = parse_sse(raw)
        completed = [event_from_json(p) for p in events if p["event"] == "completed"]
        sample.extra["client_decode"] = _clock() - decode_started
        sample.extra["wire_events"] = len(events)
        if end is None or end.get("state") != "completed" or not completed:
            sample.failures.append(f"stream ended in state {end and end.get('state')!r}")
            return sample, None
        result = completed[-1].result
        payload = next(p for p in reversed(events) if p["event"] == "completed")
        roundtrip = checks.check_wire_roundtrip(payload["data"]["result"])
        if roundtrip:
            sample.failures.append(roundtrip)
        self._account(sample, result)
        sample.extra["http_overhead"] = sample.wall - sample.extra["server_wall"]
        return sample, result


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DirectLive, IndexServed, WireServed, ShardedScan, IngestBuild)
}
