"""Exact totals under contention for every guarded site without one elsewhere.

Each test runs 8 threads x 2000 operations against one shared instance and
requires the exact result a serial run gives: no lost update, no duplicate,
no leaked slot.  The ledger and the shared cache have theirs in
``test_runtime_ledger.py`` and ``test_shared_cache.py``.  CI also runs this
file pinned to one core, where the interleavings differ most.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from collections.abc import Callable

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.manager import EventLog
from repro.service.scheduler import FairScheduler

THREADS = 8
OPERATIONS = 2000
TOTAL = THREADS * OPERATIONS


@pytest.fixture(autouse=True)
def _frequent_switches():
    """Switch threads every 10 us instead of every 5 ms, so that operations
    interleave inside each other's read-modify-write."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_threads(worker: Callable[[int], None]) -> None:
    """Run ``worker(i)`` on ``THREADS`` threads; re-raise the first failure."""
    errors: list[Exception] = []

    def guarded(worker_id: int) -> None:
        try:
            worker(worker_id)
        except Exception as exc:  # handed to the test thread, re-raised there
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
        assert not thread.is_alive()
    if errors:
        raise errors[0]


def test_metrics_registry_totals_are_exact():
    registry = MetricsRegistry()

    def worker(worker_id: int) -> None:
        for _ in range(OPERATIONS):
            registry.inc("repro_stress_total", labels={"kind": "all"})
            registry.inc("repro_stress_by_worker_total", 2, labels={"w": worker_id})
            registry.observe("repro_stress_seconds", 0.5)

    _run_threads(worker)
    snapshot = registry.snapshot()
    assert snapshot["counters"]['repro_stress_total{kind="all"}'] == TOTAL
    for worker_id in range(THREADS):
        key = f'repro_stress_by_worker_total{{w="{worker_id}"}}'
        assert snapshot["counters"][key] == 2 * OPERATIONS
    histogram = snapshot["histograms"]["repro_stress_seconds"]
    assert histogram["count"] == TOTAL
    assert histogram["sum"] == 0.5 * TOTAL
    assert sum(histogram["buckets"].values()) == TOTAL


def test_tracer_span_ids_are_unique_and_every_span_closes():
    tracer = Tracer()

    def worker(worker_id: int) -> None:
        for _ in range(OPERATIONS):
            with tracer.span("op", worker=worker_id):
                pass

    _run_threads(worker)
    records = tracer.records()
    assert len(records) == TOTAL
    assert len({record.span_id for record in records}) == TOTAL
    assert Counter(record.attributes["worker"] for record in records) == {
        worker_id: OPERATIONS for worker_id in range(THREADS)
    }
    assert tracer.open_spans() == 0


def test_event_log_readers_see_every_index_exactly_once():
    log = EventLog()
    appended: list[list[int]] = [[] for _ in range(THREADS)]
    readers = 4
    seen: list[list[tuple[int, int]]] = [[] for _ in range(readers)]

    def read(reader_id: int) -> None:
        for index in range(TOTAL):
            payload = log.wait_for(index, timeout=60.0)
            assert payload is not None
            seen[reader_id].append((payload["w"], payload["n"]))

    def write(worker_id: int) -> None:
        for n in range(OPERATIONS):
            appended[worker_id].append(log.append({"w": worker_id, "n": n}))

    reader_threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
    for thread in reader_threads:
        thread.start()
    _run_threads(write)
    log.close()
    for thread in reader_threads:
        thread.join(60.0)
        assert not thread.is_alive()
    assert sorted(i for indices in appended for i in indices) == list(range(TOTAL))
    everything = {(w, n) for w in range(THREADS) for n in range(OPERATIONS)}
    for reader_id in range(readers):
        assert len(seen[reader_id]) == TOTAL
        assert set(seen[reader_id]) == everything
        assert seen[reader_id] == seen[0]  # one order for every reader
    assert len(log) == TOTAL and log.closed


class _Record:
    """What the scheduler reads off a query record."""

    def __init__(self, query_id: str, tenant: str, session: str, slots: int) -> None:
        self.query_id = query_id
        self.tenant_key = tenant
        self.session_key = session
        self.slots = slots
        self.enqueued_at: float | None = None
        self.dispatched_at: float | None = None


def test_scheduler_runs_every_record_once_and_frees_every_slot():
    slots = 3
    books = threading.Condition()
    runs: Counter[str] = Counter()
    active_sessions: set[str] = set()
    active_slots = [0]
    problems: list[str] = []

    def run(record: _Record) -> None:
        demand = min(record.slots, slots)
        with books:
            if record.session_key in active_sessions:
                problems.append(f"session {record.session_key} ran twice at once")
            active_sessions.add(record.session_key)
            active_slots[0] += demand
            if active_slots[0] > slots:
                problems.append(f"{active_slots[0]} slots in use of {slots}")
        with books:
            active_sessions.discard(record.session_key)
            active_slots[0] -= demand
            runs[record.query_id] += 1
            books.notify_all()

    scheduler = FairScheduler(slots, run)

    def submit(worker_id: int) -> None:
        for n in range(OPERATIONS):
            scheduler.submit(
                _Record(
                    query_id=f"q{worker_id}-{n}",
                    tenant=f"t{worker_id % 3}",
                    session=f"s{worker_id}-{n % 2}",
                    slots=1 + n % 2,
                )
            )

    _run_threads(submit)
    with books:
        assert books.wait_for(lambda: len(runs) == TOTAL, timeout=120.0)
    scheduler.shutdown()
    assert problems == []
    assert len(runs) == TOTAL and set(runs.values()) == {1}
    with scheduler._state as s:
        assert s.free == slots
        assert not s.running and not s.busy_sessions
        assert not any(s.queues.values())
