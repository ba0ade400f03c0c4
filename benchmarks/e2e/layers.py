"""Per-layer wall, measured from outside the program.

``install(recorder)`` wraps the public callables at each layer boundary of
``src/repro`` with span recorders and ``restore()`` puts the originals back.
Nothing under ``src/`` knows it is being measured.

A *span* is one call: name, start, end, parent (via a per-thread stack) and
the op it served.  Self time is the span minus its children, computed as the
stack unwinds.  Callables that run once per frame (``IndexView.get``) are
*tallied* instead — calls, seconds and self seconds per (op, name), charged to
the parent's children like a span — because a record per frame would cost more
than the call it measures.  The self times of the spans and tallies under a
root therefore always sum to the root.  Generators get one span per resume, so
time is charged to whoever is running.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

_clock = time.perf_counter


class _ThreadState:
    """One thread's open-span stack and its tallies (merged at read time)."""

    def __init__(self) -> None:
        self.stack: list[list[Any]] = []  # [span_id, child_seconds]
        self.thread_id = threading.get_ident()
        self.op: Any = None
        self.tallies: dict[tuple[Any, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple[Any, str], float] = defaultdict(float)


class Recorder:
    """In-memory span store; dumped once, when the benchmark ends."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, name, op, thread_id, start, end, self_seconds)``
        self.spans: list[tuple[int, int, str, Any, int, float, float, float]] = []
        #: Op attributed to spans of threads that never set their own — the
        #: single caller's current op, which its shard worker threads inherit.
        self.default_op: Any = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._threads_lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._threads_lock:
                self._threads.append(state)
        return state

    # -- recording -----------------------------------------------------------------

    @contextmanager
    def op(self, op_id: Any) -> Iterator[None]:
        """Attribute everything this thread records inside the block to ``op_id``."""
        state = self._state()
        previous, state.op = state.op, op_id
        try:
            yield
        finally:
            state.op = previous

    def enter(self, state: _ThreadState) -> tuple[list[Any], float]:
        frame = [next(self._ids), 0.0]
        state.stack.append(frame)
        return frame, _clock()

    def exit(self, state: _ThreadState, frame: list[Any], name: str, start: float) -> None:
        end = _clock()
        stack = state.stack
        stack.pop()
        duration = end - start
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[0]
        op = state.op if state.op is not None else self.default_op
        self.spans.append(
            (frame[0], parent_id, name, op, state.thread_id, start, end, duration - frame[1])
        )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        state = self._state()
        frame, start = self.enter(state)
        try:
            yield
        finally:
            self.exit(state, frame, name, start)

    def count(self, name: str, value: float = 1.0) -> None:
        state = self._state()
        op = state.op if state.op is not None else self.default_op
        state.counts[(op, name)] += value

    # -- wrappers ------------------------------------------------------------------

    def wrap_span(
        self, name: str, fn: Callable, after: Callable[..., None] | None = None
    ) -> Callable:
        """``fn`` as one span per call; ``after(recorder, result, *args, **kw)``
        records counts at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = self._state()
            frame, start = self.enter(state)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(state, frame, name, start)
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function as one span per resume."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            generator = fn(*args, **kwargs)
            try:
                while True:
                    state = self._state()
                    frame, start = self.enter(state)
                    try:
                        item = next(generator)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self.exit(state, frame, name, start)
                    yield item
            finally:
                close = getattr(generator, "close", None)
                if close is not None:
                    close()

        return wrapper

    def wrap_tally(
        self, name: str, fn: Callable, after: Callable[..., None] | None = None
    ) -> Callable:
        """``fn`` as a (count, seconds, self seconds) tally per op — for
        callables that run once per frame.  It still opens a stack frame, so
        spans nested inside are its children, not its parent's."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = self._state()
            stack = state.stack
            frame = [0, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                op = state.op if state.op is not None else self.default_op
                entry = state.tallies[(op, name)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return wrapper

    def wrap_count(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter only (too hot even for a tally)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = self._state()
            state.counts[(state.op if state.op is not None else self.default_op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reading -------------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """JSON-ready form: every span, plus tallies and counters per op."""
        with self._threads_lock:
            threads = list(self._threads)
        tallies: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        counts: dict[str, float] = defaultdict(float)
        for state in threads:
            for (op, name), (calls, seconds, self_seconds) in list(state.tallies.items()):
                entry = tallies[f"{op}|{name}"]
                entry[0] += calls
                entry[1] += seconds
                entry[2] += self_seconds
            for (op, name), value in list(state.counts.items()):
                counts[f"{op}|{name}"] += value
        return {
            "span_fields": [
                "id", "parent", "name", "op", "thread", "start", "end", "self_seconds",
            ],
            "spans": [list(span) for span in self.spans],
            "tallies": dict(tallies),
            "counts": dict(counts),
        }


def self_seconds_by_root(spans: list) -> dict[int, float]:
    """Sum of self times under each root span id (used by the self-test: it
    must equal the root's own duration)."""
    parent_of = {span[0]: span[1] for span in spans}
    sums: dict[int, float] = defaultdict(float)
    for span in spans:
        root = span[0]
        while parent_of.get(root, 0):
            root = parent_of[root]
        sums[root] += span[7]
    return dict(sums)


# -- installation ----------------------------------------------------------------------


class _Patches:
    """Attribute replacements with their originals, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attribute: str, value: Any) -> None:
        # ``__dict__`` lookup keeps staticmethod/classmethod objects intact.
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def function(self, module: Any, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function everywhere ``repro`` has bound it —
        ``from x import f`` copies the reference, so the defining module alone
        is not enough."""
        original = getattr(module, attribute)
        wrapped = wrap(original)
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self.set(candidate, key, wrapped)

    def method(self, cls: type, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
        self.set(cls, attribute, wrap(vars(cls)[attribute]))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that undoes it."""
    from repro.api import session as api_session
    from repro.aqp import control_variates, sampling
    from repro.catalog import statistics as catalog
    from repro.core import context as core_context
    from repro.core import engine as core_engine
    from repro.core import events as core_events
    from repro.detection import base as detection_base
    from repro.detection import columnar
    from repro.frameql import analyzer, parser
    from repro.index import builder as index_builder
    from repro.index import store as index_store
    from repro.index import view as index_view
    from repro.optimizer import base as optimizer_base
    from repro.optimizer import cost as optimizer_cost
    from repro.optimizer.operators import importance as op_importance
    from repro.optimizer.operators import verify as op_verify
    from repro.parallel import cache as parallel_cache
    from repro.parallel import executor as thread_executor
    from repro.parallel import plan as parallel_plan
    from repro.parallel import process_executor, shm
    from repro.selection import inference as selection_inference
    from repro.service import manager as service_manager
    from repro.service import protocol
    from repro.specialization import binary_model, count_model, trainer
    from repro.tracking import iou_tracker
    from repro.video import geometry, scenarios, synthetic

    r = recorder
    patches = _Patches()

    def span(name: str, after: Callable[..., None] | None = None):
        return lambda fn: r.wrap_span(name, fn, after)

    def generator(name: str):
        return lambda fn: r.wrap_generator(name, fn)

    # frameql / optimizer / api
    patches.function(parser, "parse", span("frameql.parse"))
    patches.function(analyzer, "analyze", span("frameql.analyze"))
    patches.method(optimizer_cost.CostBasedOptimizer, "plan", span("optimizer.plan"))
    patches.method(
        optimizer_cost.CostBasedOptimizer,
        "candidates",
        span(
            "optimizer.candidates",
            lambda rec, result, *a, **k: rec.count("optimizer.candidates", len(result)),
        ),
    )
    patches.method(api_session.QuerySession, "prepare", span("api.prepare"))
    patches.method(core_events.ExecutionStream, "__next__", span("api.execute"))
    # Operator code no deeper wrapper claims lands in this span's self time
    # (not in api.execute's or parallel.merge's, which sit above it).
    patches.method(optimizer_base.PhysicalPlan, "run", generator("optimizer.run"))

    # specialization
    patches.function(trainer, "train_classifier", span("specialization.train"))
    infer_frames = span(
        "specialization.infer",
        lambda rec, result, model, features, *a, **k: rec.count(
            "specialization.infer_frames", len(result)
        ),
    )
    patches.method(count_model.CountSpecializedModel, "predict_proba", infer_frames)
    patches.method(count_model.CountSpecializedModel, "predict_counts", infer_frames)
    patches.method(binary_model.BinaryPresenceModel, "predict_proba_present", infer_frames)

    # aqp
    patches.function(sampling, "adaptive_sample_stream", generator("aqp.sample"))
    patches.function(control_variates, "control_variate_stream", generator("aqp.sample"))

    # scrubbing: the plan's own ranking and verification operators
    patches.method(op_importance.ImportanceOrderedScan, "order", span("scrubbing.rank"))
    patches.method(op_verify.DetectorVerifier, "stream", generator("scrubbing.verify"))

    # selection
    patches.function(
        selection_inference, "infer_selection_plan", span("selection.infer_plan")
    )

    # tracking
    patches.method(
        iou_tracker.IoUTracker,
        "resolve",
        span(
            "tracking.resolve",
            lambda rec, result, *a, **k: rec.count("tracking.tracks_out", len(result)),
        ),
    )
    patches.method(
        geometry.BoundingBox, "iou", lambda fn: r.wrap_count("tracking.iou_calls", fn)
    )

    # detection
    patches.method(
        detection_base.ObjectDetector,
        "detect_many",
        span(
            "detection.detect",
            lambda rec, result, *a, **k: rec.count("detection.frames_detected", len(result)),
        ),
    )
    patches.function(columnar, "encode_detection_results", span("detection.encode"))
    # Index reads decode one frame per call: a tally, not a span per frame.
    patches.function(
        columnar,
        "decode_detection_results",
        lambda fn: r.wrap_tally(
            "detection.decode",
            fn,
            lambda rec, result, *a, **k: rec.count(
                "detection.decoded_objects", sum(len(x.detections) for x in result)
            ),
        ),
    )

    # video
    patches.method(synthetic.SyntheticVideo, "frame_features", span("video.features"))
    patches.function(scenarios, "generate_scenario", span("video.generate"))

    # core
    patches.method(core_context.ExecutionContext, "detect_batch", span("core.detect_batch"))

    # index
    patches.method(index_view.IndexView, "get", lambda fn: r.wrap_tally("index.get", fn))
    patches.function(index_builder, "build_video_index", span("index.build"))
    patches.method(index_store.PersistentIndex, "open", span("index.open"))
    patches.method(core_engine.BlazeIt, "warm_start", span("index.warm_start"))

    # catalog / shared cache persistence
    patches.method(
        catalog.StatisticsCatalog,
        "register_from_labeled_set",
        span("catalog.from_labeled_set"),
    )
    patches.method(catalog.StatisticsCatalog, "save", span("catalog.save"))
    patches.set(
        catalog.StatisticsCatalog,
        "load",
        classmethod(
            r.wrap_span("catalog.load", vars(catalog.StatisticsCatalog)["load"].__func__)
        ),
    )
    patches.method(parallel_cache.SharedDetectionCache, "save", span("parallel.cache_save"))
    patches.set(
        parallel_cache.SharedDetectionCache,
        "load",
        classmethod(
            r.wrap_span(
                "parallel.cache_load",
                vars(parallel_cache.SharedDetectionCache)["load"].__func__,
            )
        ),
    )

    # parallel executors: spawn = construction -> first prefetched detection
    def executor_init(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
            self._e2e_built_at = _clock()
            fn(self, *args, **kwargs)

        return wrapper

    def executor_take(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any, frame_indices: Any) -> Any:
            result = fn(self, frame_indices)
            if result:
                r.count("parallel.frames_consumed", len(result))
                built_at = getattr(self, "_e2e_built_at", None)
                if built_at is not None:
                    self._e2e_built_at = None
                    r.count("parallel.spawn_seconds", _clock() - built_at)
                    r.count("parallel.executions")
            return result

        return r.wrap_span("parallel.take", wrapper)

    def executor_shutdown(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any) -> None:
            if not getattr(self, "_e2e_counted", False):
                self._e2e_counted = True
                fn(self)
                r.count("parallel.frames_prefetched", self.frames_prefetched)
            else:
                fn(self)

        return r.wrap_span("parallel.shutdown", wrapper)

    for executor in (
        thread_executor.DetectionPrefetcher,
        process_executor.ProcessShardExecutor,
    ):
        patches.method(executor, "__init__", executor_init)
        patches.method(executor, "take_many", executor_take)
        patches.method(executor, "shutdown", executor_shutdown)
    patches.function(parallel_plan, "parallel_events", span("parallel.setup"))
    patches.method(parallel_plan.StreamMerger, "events", generator("parallel.merge"))
    patches.method(
        shm.SlotRing,
        "__init__",
        lambda fn: r.wrap_span(
            "parallel.shm_create",
            fn,
            lambda rec, result, ring, shard_id, slot_count, slot_bytes: rec.count(
                "parallel.shm_bytes", slot_count * slot_bytes
            ),
        ),
    )

    # service (server side; the client side is timed by the wire workload)
    patches.function(protocol, "result_to_json", span("service.encode"))
    patches.function(protocol, "event_to_json", span("service.encode"))

    def drain(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(manager: Any, record: Any) -> None:
            with r.op(record.query_id):
                fn(manager, record)

        return r.wrap_span("service.drain", wrapper)

    patches.method(service_manager.ServiceManager, "_drain", drain)

    return patches.restore
