"""Fair slot-based scheduler for concurrent query execution.

The service runs many tenants' queries on one shared executor.  Capacity is
modelled as *slots*: a query consumes ``max(1, parallelism)`` slots (its
shard workers are real threads competing for the same cores), so a
4-worker parallel query takes four times the capacity of a sequential one —
this is how ``QueryHints.parallelism`` is respected as demand rather than
ignored or trusted blindly.

Fairness is round-robin across tenants: each tenant has a FIFO queue, and
dispatch walks tenants in rotation starting after the last tenant served, so
one tenant flooding the queue cannot starve the others.  Within a tenant,
order is strictly FIFO.

Two additional invariants:

* **Per-session serialization.**  At most one query per engine session runs
  at a time.  Sequential execution re-binds the session context's RNG on
  every event pull, so two concurrent queries of one session would race on
  shared state; queries from *different* sessions have disjoint contexts
  and run freely in parallel.
* **One drainer thread per running query.**  The callback the manager
  provides pulls the query's event stream to its terminal state; the thread
  exists only while the query runs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.sync import Guarded

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.manager import QueryRecord


class _SchedulerState:
    """Queues, rotation and slot accounting of one scheduler, reached only
    under its guard."""

    __slots__ = ("free", "queues", "rotation", "cursor", "busy_sessions", "running")

    def __init__(self, slots: int) -> None:
        self.free = slots
        self.queues: dict[str, deque[QueryRecord]] = {}
        self.rotation: list[str] = []
        self.cursor = 0
        self.busy_sessions: set[str] = set()
        self.running: dict[str, threading.Thread] = {}


class FairScheduler:
    """Round-robin-across-tenants, FIFO-within-tenant slot scheduler."""

    def __init__(
        self, slots: int, run: Callable[[QueryRecord], None]
    ) -> None:
        if slots < 1:
            raise ConfigurationError(f"scheduler needs >= 1 slot, got {slots}")
        self._slots = slots
        self._run = run
        self._state = Guarded(_SchedulerState(slots))

    # -- introspection -------------------------------------------------------------

    def queued_count(self) -> int:
        with self._state as s:
            return sum(len(q) for q in s.queues.values())

    def running_count(self) -> int:
        with self._state as s:
            return len(s.running)

    # -- submission ----------------------------------------------------------------

    def submit(self, record: QueryRecord) -> None:
        """Enqueue an admitted query and dispatch whatever now fits."""
        with self._state as s:
            tenant = record.tenant_key
            queue = s.queues.get(tenant)
            if queue is None:
                queue = s.queues[tenant] = deque()
                s.rotation.append(tenant)
            record.enqueued_at = time.perf_counter()
            queue.append(record)
            self._dispatch(s)

    def withdraw(self, record: QueryRecord) -> bool:
        """Remove a still-queued record; ``False`` if it already started."""
        with self._state as s:
            queue = s.queues.get(record.tenant_key)
            if queue is not None and record in queue:
                queue.remove(record)
                return True
            return False

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, s: _SchedulerState) -> None:
        """Start every queued query that fits, fairly.

        Takes the state its caller holds under the guard.  Each pass walks
        the tenant rotation once starting after the tenant served last; a
        tenant whose head-of-queue query cannot start (its session is busy,
        or not enough free slots) is skipped without losing its turn.
        Passes repeat until one makes no progress.
        """
        progressed = True
        while progressed:
            progressed = False
            count = len(s.rotation)
            for step in range(count):
                index = (s.cursor + step) % count
                queue = s.queues.get(s.rotation[index])
                if not queue:
                    continue
                record = queue[0]
                demand = min(record.slots, self._slots)
                if record.session_key in s.busy_sessions:
                    continue
                if demand > s.free:
                    continue
                queue.popleft()
                record.dispatched_at = time.perf_counter()
                s.free -= demand
                s.busy_sessions.add(record.session_key)
                # No modulo here: the rotation can grow before the next
                # dispatch, and wrapping now would hand the turn back to the
                # first tenant instead of the next one.
                s.cursor = index + 1
                thread = threading.Thread(
                    target=self._drain,
                    args=(record, demand),
                    name=f"query-{record.query_id}",
                    daemon=True,
                )
                s.running[record.query_id] = thread
                thread.start()
                progressed = True
                break

    def _drain(self, record: QueryRecord, demand: int) -> None:
        try:
            self._run(record)
        finally:
            with self._state as s:
                s.free += demand
                s.busy_sessions.discard(record.session_key)
                s.running.pop(record.query_id, None)
                self._dispatch(s)

    # -- lifecycle -----------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drop everything still queued and wait for running drainers.

        The manager is expected to have cancelled running queries first;
        this only waits for their drainers to finish and clears the queues.
        """
        with self._state as s:
            for queue in s.queues.values():
                queue.clear()
            threads = list(s.running.values())
        for thread in threads:
            thread.join(timeout)


__all__ = ["FairScheduler"]
