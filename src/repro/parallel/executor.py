"""The shard driver protocol, the worker loop, and the thread transport.

:class:`ShardDriver` is the only place driver-side window state lives (the
package docstring states the protocol and what a transport owes it).  The
plan visits each shard's frames in exactly the order the worker produces
them, so a :meth:`~ShardDriver.take` either pops delivered results (skipping
frames the plan decided not to verify — their speculative detections are
discarded) or blocks briefly until the worker catches up.

Cancellation is cooperative and prompt: workers watch the execution's
:class:`~repro.stopping.CancellationToken` (a LIMIT satisfied across shards,
a cancelled stream) and the driver's own shutdown token, checking between
detection chunks.  :meth:`ShardDriver.shutdown` joins every worker, so once
it returns no further detector call can happen.
"""

from __future__ import annotations

import abc
import queue
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, NamedTuple

import numpy as np

from repro.core.events import ShardProgress
from repro.parallel.shards import Shard, ShardPlan
from repro.stopping import CancellationToken

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import ExecutionContext
    from repro.detection.base import DetectionResult

#: Bound (in chunks) on how far one worker may run ahead of the driver's
#: consumption, unless its transport can lift it for a monotone scan.
WINDOW_CHUNKS = 8

#: Poll interval for cancel-aware blocking transport operations.
POLL_SECONDS = 0.05


class WorkerMessage(NamedTuple):
    """What a shard worker sends the driver, on either transport."""

    #: Frames the worker has computed so far, this message's chunk included.
    computed: int
    #: This chunk's detections, in announced order.
    results: "Sequence[DetectionResult]" = ()
    #: The worker's span payload; set only on its final (``done``) message.
    span: dict[str, Any] | None = None


def run_shard_worker(
    shard_id: int,
    backend: str,
    frames: np.ndarray,
    chunk_size: int,
    compute: "Callable[[list[int]], list[DetectionResult]]",
    publish: Callable[[WorkerMessage], bool],
    stopped: Callable[[], bool],
) -> None:
    """The loop every shard worker runs, whatever carries its messages.

    ``compute`` is uncharged speculation; ``publish`` hands one message to
    the transport, blocking while the window is full, and returns ``False``
    when the worker should stop instead.
    """
    worklist: list[int] = frames.tolist()
    computed = 0
    chunks = 0
    started = time.perf_counter()  # repro: allow[RPR001]: worker span wall stamping (display only)
    try:
        while computed < len(worklist) and not stopped():
            chunk = worklist[computed : computed + chunk_size]
            results = compute(chunk)
            computed += len(chunk)
            chunks += 1
            if not publish(WorkerMessage(computed, results)):
                return
    finally:
        # Always terminate the stream — a worker that dies on a detector or
        # recording error must not leave the driver polling forever.  take()
        # then returns None for the shard's remaining frames and the driver
        # computes them inline, reproducing (and surfacing) the error on its
        # own thread with normal charging.
        wall = time.perf_counter() - started  # repro: allow[RPR001]: worker span wall stamping (display only)
        publish(
            WorkerMessage(
                computed,
                span={
                    "shard_id": shard_id,
                    "name": "shard_worker",
                    "wall_duration": wall,
                    "frames": computed,
                    "chunks": chunks,
                    "backend": backend,
                },
            )
        )


@dataclass
class _ShardState:
    """Driver-side bookkeeping for one shard."""

    shard: Shard
    frames: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    position_of: dict[int, int] = field(default_factory=dict)
    buffer: "dict[int, DetectionResult]" = field(default_factory=dict)
    consumed: int = 0  # positions < consumed have been taken or passed
    computed: int = 0  # the worker's latest cumulative count
    started: bool = False
    finished: bool = False  # final message seen, or worker found dead
    worker: Any = None  # the transport's handle while a worker is up


class ShardDriver(abc.ABC):
    """Per-shard speculative detection pipeline behind ``ExecutionContext``.

    Built by the parallel stream driver (see
    :func:`repro.parallel.plan.parallel_events`) and attached to the driver's
    context so plan code needs no parallel-specific branches — the
    announce/take protocol hides entirely behind ``detect_batch``.
    Every method here runs on the driver thread; nothing is shared with
    workers except the two cancellation tokens.
    """

    #: Label of this transport in worker spans and metrics.
    backend: ClassVar[str]

    def __init__(
        self,
        shard_plan: ShardPlan,
        external_cancel: CancellationToken,
        chunk_size: int,
    ) -> None:
        self.shard_plan = shard_plan
        self.chunk_size = max(1, chunk_size)
        self._external_cancel = external_cancel
        self._shutdown = CancellationToken()
        self._states = {
            shard.shard_id: _ShardState(shard=shard) for shard in shard_plan.shards
        }
        self._announced = False
        #: The plan promised to consume shards strictly front-to-back; a
        #: transport whose window is not a fixed resource may lift it.
        self._monotone = False
        self.progress_events: deque[ShardProgress] = deque()
        #: Frames computed speculatively by workers (consumed or not), from
        #: the cumulative count every worker message carries; the difference
        #: to the driver's charged calls is the speculation cost.
        self.frames_prefetched = 0
        self._worker_spans: dict[int, dict[str, Any]] = {}

    # -- what a transport provides --------------------------------------------------

    @abc.abstractmethod
    def _spawn(self, state: _ShardState) -> Any:
        """Start the worker for ``state.frames``; returns the handle the
        other hooks receive.  On failure, release everything and raise."""

    @abc.abstractmethod
    def _receive(self, worker: Any, wait: bool) -> WorkerMessage | None:
        """The worker's next message; ``None`` when there is none (after at
        most :data:`POLL_SECONDS` when ``wait``, else immediately)."""

    @abc.abstractmethod
    def _alive(self, worker: Any) -> bool:
        """Whether the worker can still send messages."""

    @abc.abstractmethod
    def _join(self, worker: Any) -> None:
        """Wait for the worker to exit (shutdown has been signalled)."""

    def _release(self, worker: Any) -> None:
        """Free what the worker's transport held, after the final drain
        (nothing, unless the transport owns resources outside the heap)."""

    # -- driver-side protocol -------------------------------------------------------

    def announce(
        self, frame_order: np.ndarray | Iterable[int], monotone: bool = False
    ) -> None:
        """Declare the frame order the plan is about to verify.

        Only the first announcement takes effect (a plan's later phases —
        e.g. a scrubbing fallback sweep — revisit frames already planned);
        frames outside the announced order are simply computed inline by the
        caller.  ``monotone`` promises the driver consumes shards strictly
        front-to-back (full scans), so trailing shards may prefetch their
        whole range where the transport allows.
        """
        if self._announced or self._cancelled():
            return
        self._announced = True
        self._monotone = monotone
        order = np.asarray(
            frame_order if isinstance(frame_order, np.ndarray) else list(frame_order),
            dtype=np.int64,
        )
        shard_ids = self.shard_plan.owners_of(order)
        for shard_id, state in self._states.items():
            frames = order[shard_ids == shard_id]
            state.frames = frames
            state.position_of = {int(f): i for i, f in enumerate(frames)}
        # Eager workers in density order (NeedleTail scheduling): pruned
        # shards wait for an actual request for one of their frames.
        for shard in self.shard_plan.scheduling_order():
            if not shard.pruned:
                self._start_worker(self._states[shard.shard_id])

    def take(self, frame_index: int) -> "DetectionResult | None":
        """The prefetched detection for a frame, or ``None`` to compute inline.

        Blocks while the owning worker is alive and still ahead of this
        frame; returns ``None`` when the frame was never announced, was
        already passed, the pipeline is shutting down, or the worker died —
        callers fall back to a direct (charged) detector call, so a ``None``
        is always safe.
        """
        if not self._announced:
            return None
        frame_index = int(frame_index)
        state = self._states[self.shard_plan.owner_of(frame_index).shard_id]
        position = state.position_of.get(frame_index)
        if position is None or position < state.consumed:
            return None
        self._start_worker(state)
        while True:
            result = state.buffer.get(frame_index)
            if result is not None:
                state.consumed = position + 1
                self._purge_passed(state)
                return result
            if state.finished or self._cancelled():
                return None
            message = self._receive(state.worker, wait=True)
            if message is None:
                if self._alive(state.worker):
                    continue
                # Crashed or killed worker: one last look (its final sends
                # may have landed after our timed-out wait), then finish the
                # shard so the plan computes inline.
                message = self._receive(state.worker, wait=False)
                if message is None:
                    state.finished = True
                    continue
            self._ingest(state, message)

    def take_many(
        self, frame_indices: Iterable[int]
    ) -> "dict[int, DetectionResult]":
        """Prefetched detections for a batch (hits only), in driver order."""
        out: "dict[int, DetectionResult]" = {}
        for frame_index in frame_indices:
            result = self.take(int(frame_index))
            if result is not None:
                out[int(frame_index)] = result
        return out

    def shutdown(self) -> None:
        """Stop and join every worker; no detector call can follow.

        Messages a worker sent that the plan never took — its final one
        above all — are still counted, so ``frames_prefetched`` and the
        worker spans cover speculation the plan stopped short of.
        """
        self._shutdown.set()
        for state in self._states.values():
            worker, state.worker = state.worker, None
            if worker is None:
                continue
            self._join(worker)
            while (message := self._receive(worker, wait=False)) is not None:
                self._ingest(state, message)
            self._release(worker)

    def worker_spans(self) -> "list[dict[str, Any]]":
        """Span payloads of every reporting worker, in shard-id order.

        Call after :meth:`shutdown`.  A worker that died without its final
        message (crash, SIGKILL) simply has no span.  Wall durations are
        display-only (the tracer's determinism contract); identity comes
        from shard ids.
        """
        return [self._worker_spans[k] for k in sorted(self._worker_spans)]

    # -- driver internals -----------------------------------------------------------

    def _cancelled(self) -> bool:
        return self._shutdown.is_set() or self._external_cancel.is_set()

    def _start_worker(self, state: _ShardState) -> None:
        if state.started:
            return
        state.started = True
        if state.frames.size == 0 or self._cancelled():
            state.finished = True
            return
        state.worker = self._spawn(state)

    def _ingest(self, state: _ShardState, message: WorkerMessage) -> None:
        """Account for one worker message and buffer what is still ahead."""
        self.frames_prefetched += message.computed - state.computed
        state.computed = message.computed
        if message.span is not None:
            state.finished = True
            self._worker_spans[state.shard.shard_id] = message.span
            return
        for result in message.results:
            if state.position_of[result.frame_index] >= state.consumed:
                state.buffer[result.frame_index] = result
        self.progress_events.append(
            ShardProgress(
                shard=state.shard.shard_id,
                start_frame=state.shard.start,
                end_frame=state.shard.end,
                frames_computed=message.computed,
                shard_frames=int(state.frames.size),
                done=message.computed >= state.frames.size,
            )
        )

    def _purge_passed(self, state: _ShardState) -> None:
        passed = [f for f in state.buffer if state.position_of[f] < state.consumed]
        for f in passed:
            del state.buffer[f]


class _ThreadWorker(NamedTuple):
    thread: threading.Thread
    ready: "queue.SimpleQueue[WorkerMessage]"
    #: Chunks the worker may still send ahead of the driver (``None``: any).
    window: threading.Semaphore | None


class DetectionPrefetcher(ShardDriver):
    """The thread transport: one worker thread per shard, in-process queue.

    Workers speculate in the driver context's
    :meth:`~repro.core.context.ExecutionContext.shard_context`, reading —
    never writing — the shared cross-query cache and the recording.  Right
    whenever the detector releases the GIL during its latency.
    """

    backend = "threads"

    def __init__(
        self,
        shard_plan: ShardPlan,
        context: "ExecutionContext",
        external_cancel: CancellationToken,
        chunk_size: int,
    ) -> None:
        super().__init__(shard_plan, external_cancel, chunk_size)
        self._worker_context = context.shard_context()

    # benchmarks/e2e/layers.py wraps ``vars(cls)[name]`` on both executor
    # classes, so each class body must bind these names itself.
    take_many = ShardDriver.take_many
    shutdown = ShardDriver.shutdown

    def _spawn(self, state: _ShardState) -> _ThreadWorker:
        ready: "queue.SimpleQueue[WorkerMessage]" = queue.SimpleQueue()
        # An in-process queue costs only memory, so a monotone scan lets
        # trailing shards run to the end of their range.
        window = None if self._monotone else threading.Semaphore(WINDOW_CHUNKS)

        def publish(message: WorkerMessage) -> bool:
            if window is not None and message.span is None:
                while not window.acquire(timeout=POLL_SECONDS):
                    if self._cancelled():
                        return False
            ready.put(message)
            return True

        thread = threading.Thread(
            target=run_shard_worker,
            args=(
                state.shard.shard_id,
                self.backend,
                state.frames,
                self.chunk_size,
                self._worker_context.speculate_batch,
                publish,
                self._cancelled,
            ),
            name=f"repro-shard-{state.shard.shard_id}",
            daemon=True,
        )
        thread.start()
        return _ThreadWorker(thread, ready, window)

    def _receive(self, worker: _ThreadWorker, wait: bool) -> WorkerMessage | None:
        try:
            message = worker.ready.get(block=wait, timeout=POLL_SECONDS)
        except queue.Empty:
            return None
        if worker.window is not None and message.span is None:
            worker.window.release()
        return message

    def _alive(self, worker: _ThreadWorker) -> bool:
        return worker.thread.is_alive()

    def _join(self, worker: _ThreadWorker) -> None:
        worker.thread.join()
