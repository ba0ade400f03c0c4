"""The process transport: spawned shard workers, shared-memory result ring.

Use it when the detector *holds* the GIL per call (pure-Python compute, a
badly behaved extension): thread workers then serialize while process
workers each own an interpreter.

Workers are spawn-safe: each receives a picklable
:class:`~repro.core.context.ContextSpec` (video spec + track list + detector)
and rebuilds its shard's video from scratch — detections are deterministic
per (detector seed, video seed, frame index), so a worker's speculative
output is bit-for-bit what the driver would have computed.  Results travel
as columnar payloads through a per-shard ring of shared-memory slots
(:mod:`repro.parallel.shm`) with a small header on a queue.  The shared
cross-query cache stays driver-only: a process worker recomputing a cached
frame costs wall-clock, never simulated budget.  A recorded test day is a
detector that refuses to pickle, so a context replaying one never reaches
this transport.

A worker that dies (crash, SIGKILL) simply stops publishing; the driver
notices the dead process and the plan computes the remaining frames inline.
The driver owns every shared-memory segment, so a crashed worker can never
leak one.
"""

from __future__ import annotations

import multiprocessing
import queue
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.core.context import ContextSpec
from repro.detection.columnar import decode_from_bytes, encode_to_bytes
from repro.parallel.executor import (
    POLL_SECONDS,
    WINDOW_CHUNKS,
    ShardDriver,
    WorkerMessage,
    _ShardState,
    run_shard_worker,
)
from repro.parallel.shards import ShardPlan
from repro.parallel.shm import SlotRing, attach_slots, detach_slots
from repro.stopping import CancellationToken

__all__ = ["ProcessShardExecutor", "ShardWorkerSpec"]

#: Grace period for worker processes to exit after the stop event is set
#: before the driver escalates to ``terminate()``.
_JOIN_SECONDS = 2.0

#: Size of one shared-memory slot.  A chunk's columnar payload is a few tens
#: of kilobytes for realistic detection densities; payloads that still exceed
#: the slot spill to an inline (pickled-bytes) header instead of failing.
SLOT_BYTES = 1 << 20


@dataclass(frozen=True)
class ShardWorkerSpec:
    """Everything one worker process needs, in picklable form.

    Deliberately plain data — no locks, sockets or driver state — so the
    spawn pickling is cheap.  The ``spawn`` start method pickles it at
    ``start()``: anything driver-only that strayed in would fail loudly
    there, not be silently shared.
    """

    shard_id: int
    context_spec: ContextSpec
    frames: np.ndarray
    chunk_size: int
    slot_names: tuple[str, ...]


class _ProcessWorker(NamedTuple):
    process: Any  # SpawnProcess
    ring: SlotRing
    free_slots: Any  # mp.Queue[int]: slot indices the worker may fill
    ready: Any  # mp.Queue[header tuple], see _shard_worker_main


class ProcessShardExecutor(ShardDriver):
    """The process transport: one spawned worker per shard, shm slot ring."""

    backend = "processes"

    def __init__(
        self,
        shard_plan: ShardPlan,
        context_spec: ContextSpec,
        external_cancel: CancellationToken,
        chunk_size: int,
    ) -> None:
        super().__init__(shard_plan, external_cancel, chunk_size)
        self.context_spec = context_spec
        self._mp = multiprocessing.get_context("spawn")
        self._stop = self._mp.Event()

    # benchmarks/e2e/layers.py wraps ``vars(cls)[name]`` on both executor
    # classes, so each class body must bind this name itself.
    take_many = ShardDriver.take_many

    def shutdown(self) -> None:
        """Stop and reap every worker, then unlink every shm segment.

        After this returns no worker process is alive and no shared-memory
        slot remains registered, even after a SIGKILLed worker.
        """
        self._stop.set()
        super().shutdown()

    def _spawn(self, state: _ShardState) -> _ProcessWorker:
        ring = SlotRing(state.shard.shard_id, WINDOW_CHUNKS, SLOT_BYTES)
        free_slots = self._mp.Queue()
        for index in range(WINDOW_CHUNKS):
            free_slots.put(index)
        ready = self._mp.Queue()
        spec = ShardWorkerSpec(
            shard_id=state.shard.shard_id,
            context_spec=self.context_spec,
            frames=state.frames,
            chunk_size=self.chunk_size,
            slot_names=ring.names,
        )
        process = self._mp.Process(
            target=_shard_worker_main,
            args=(spec, free_slots, ready, self._stop),
            name=f"repro-shard-proc-{state.shard.shard_id}",
            daemon=True,
        )
        worker = _ProcessWorker(process, ring, free_slots, ready)
        try:
            process.start()
        except BaseException:
            # Spawn refused — e.g. the interpreter is still bootstrapping
            # because the caller's script lacks an ``if __name__ ==
            # "__main__"`` guard.  Release this shard's segments and queues
            # before propagating; the never-started process is not kept, so
            # the subsequent shutdown() has nothing to join.
            self._release(worker)
            raise
        return worker

    def _receive(self, worker: _ProcessWorker, wait: bool) -> WorkerMessage | None:
        try:
            header = worker.ready.get(block=wait, timeout=POLL_SECONDS)
        except (queue.Empty, OSError, ValueError):
            return None
        kind, computed, *body = header
        if kind == "done":
            return WorkerMessage(computed, span=body[0])
        if self._shutdown.is_set():
            return WorkerMessage(computed)  # nobody takes results any more
        if kind == "slot":
            slot_index, nbytes = body
            payload = worker.ring.read(slot_index, nbytes)
            worker.free_slots.put(slot_index)
        else:  # "inline": payload too large for a slot
            (payload,) = body
        return WorkerMessage(computed, decode_from_bytes(payload))

    def _alive(self, worker: _ProcessWorker) -> bool:
        return bool(worker.process.is_alive())

    def _join(self, worker: _ProcessWorker) -> None:
        process = worker.process
        process.join(timeout=_JOIN_SECONDS)
        if process.is_alive():  # pragma: no cover - stuck worker
            process.terminate()
            process.join(timeout=_JOIN_SECONDS)
        if process.is_alive():  # pragma: no cover - unkillable worker
            process.kill()
            process.join()

    def _release(self, worker: _ProcessWorker) -> None:
        """Close the shard's queues and unlink its shm segments."""
        for q in (worker.free_slots, worker.ready):
            q.cancel_join_thread()
            q.close()
        worker.ring.destroy()


# -- worker process -------------------------------------------------------------------


def _shard_worker_main(
    spec: ShardWorkerSpec, free_slots: Any, ready: Any, stop: Any
) -> None:
    """Entry point of one spawned shard worker.

    Rebuilds the shard's video and detector from the picklable spec and runs
    the shared worker loop, publishing each chunk's columnar payload through
    the next free shared-memory slot.  Headers on ``ready`` are
    ``("slot", computed, slot_index, nbytes)``, ``("inline", computed,
    payload)`` and finally ``("done", computed, span)`` — always sent on the
    way out, so a clean exit (worklist drained, stop event, detector error)
    is distinguishable from a crash.
    """
    slots = attach_slots(spec.slot_names)

    def publish(message: WorkerMessage) -> bool:
        if message.span is not None:
            try:
                ready.put(("done", message.computed, message.span))
            except (OSError, ValueError):  # pragma: no cover - driver gone
                pass
            return True
        payload = encode_to_bytes(message.results)
        if len(payload) > slots[0].size:
            # Pathologically dense chunk: send the bytes inline through the
            # queue rather than failing the shard.
            ready.put(("inline", message.computed, payload))
            return True
        while not stop.is_set():
            try:
                slot_index = free_slots.get(timeout=POLL_SECONDS)
            except queue.Empty:
                continue
            slots[slot_index].buf[: len(payload)] = payload
            ready.put(("slot", message.computed, slot_index, len(payload)))
            return True
        return False

    try:
        run_shard_worker(
            spec.shard_id,
            ProcessShardExecutor.backend,
            spec.frames,
            spec.chunk_size,
            spec.context_spec.speculator(),
            publish,
            stop.is_set,
        )
    finally:
        detach_slots(slots)
