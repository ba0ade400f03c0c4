"""``repro.sync.Guarded`` and the lockdep the test suite runs it under.

Lock discipline is structure now (the fields live inside the guard, the
ledgers are frozen), and lock *order* is checked at run time by
``tests/lockdep.py``.  These tests pin both: what the structure refuses, and
what lockdep raises on.  Each lockdep test installs a fresh checker, so the
orders it builds on purpose never reach the session-wide graph.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from lockdep import LockOrderError, installed
from repro.metrics.runtime import ExecutionLedger, RuntimeLedger
from repro.sync import Guarded


class _Alpha:
    pass


class _Beta:
    pass


class _Gamma:
    pass


def _take(outer: Guarded, inner: Guarded) -> None:
    with outer:
        with inner:
            pass


def _run_in_thread(target) -> None:
    thread = threading.Thread(target=target)
    thread.start()
    thread.join(10.0)
    assert not thread.is_alive()


class TestGuarded:
    def test_block_hands_out_the_state(self):
        state = _Alpha()
        with Guarded(state) as held:
            assert held is state

    def test_condition_guard_waits_and_notifies(self):
        guard = Guarded([], condition=True)
        seen: list[bool] = []

        def waiter() -> None:
            with guard as items:
                seen.append(guard.wait_for(lambda: bool(items), timeout=10.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        with guard as items:
            items.append(1)
            guard.notify_all()
        thread.join(10.0)
        assert seen == [True]


class TestLockdep:
    def test_consistent_order_passes(self):
        with installed() as lockdep:
            alpha, beta, gamma = Guarded(_Alpha()), Guarded(_Beta()), Guarded(_Gamma())
            for _ in range(3):
                _take(alpha, beta)
                _take(beta, gamma)
                _take(alpha, gamma)
            _run_in_thread(lambda: _take(alpha, beta))
        assert lockdep.violations == []

    def test_inverted_pair_raises_with_both_stacks(self):
        with installed() as lockdep:
            alpha, beta = Guarded(_Alpha()), Guarded(_Beta())

            def alpha_then_beta() -> None:
                _take(alpha, beta)

            def beta_then_alpha() -> None:
                _take(beta, alpha)

            alpha_then_beta()
            with pytest.raises(LockOrderError) as raised:
                beta_then_alpha()
        message = str(raised.value)
        assert "_Alpha -> _Beta first taken at" in message
        assert "alpha_then_beta" in message
        assert "_Beta -> _Alpha here" in message
        assert "beta_then_alpha" in message
        assert lockdep.violations == [message]
        # The refused acquisition never took the lock: both guards are free.
        _take(alpha, beta)

    def test_cycle_through_a_third_site_raises(self):
        with installed():
            alpha, beta, gamma = Guarded(_Alpha()), Guarded(_Beta()), Guarded(_Gamma())
            _take(alpha, beta)
            _take(beta, gamma)
            with pytest.raises(LockOrderError, match="_Beta -> _Gamma first taken"):
                _take(gamma, alpha)

    def test_inversion_on_another_thread_is_recorded(self):
        with installed() as lockdep:
            alpha, beta = Guarded(_Alpha()), Guarded(_Beta())
            _take(alpha, beta)

            def swallowing() -> None:
                try:
                    _take(beta, alpha)
                except LockOrderError:
                    pass

            _run_in_thread(swallowing)
        assert len(lockdep.violations) == 1

    def test_reentry_raises_instead_of_hanging(self):
        with installed() as lockdep:
            guard = Guarded(_Alpha())
            with guard:
                with pytest.raises(LockOrderError, match="re-entry"):
                    with guard:
                        pass
        assert len(lockdep.violations) == 1

    def test_two_guards_of_one_site_may_not_nest(self):
        with installed():
            with pytest.raises(LockOrderError, match="nested sites"):
                _take(Guarded(_Alpha()), Guarded(_Alpha()))

    def test_guard_released_when_the_block_raises(self):
        with installed() as lockdep:
            guard = Guarded(_Alpha())
            with pytest.raises(ValueError):
                with guard:
                    raise ValueError("boom")
            free: list[bool] = []
            _run_in_thread(lambda: free.append(guard._lock.acquire(timeout=5.0)))
            assert free == [True]
            guard._lock.release()
            # Nothing is left held: entering another site records no edge.
            _take(Guarded(_Beta()), guard)
        assert lockdep.violations == []


class TestFrozenLedger:
    def test_assigning_a_counter_from_outside_raises(self):
        ledger = ExecutionLedger()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ledger.detector_calls = 5  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeLedger().charges = {}  # type: ignore[misc]
        assert ledger.detector_calls == 0

    def test_methods_still_write_under_the_guard(self):
        ledger = ExecutionLedger(detector_calls=2)
        ledger.record_cache_hit()
        ledger.record_index_skip(3)
        ledger.finalize_stream_accounting(4, 3, 0.5)
        ledger.set_wall_seconds(0.25)
        assert (ledger.detector_calls, ledger.detection_cache_hits, ledger.index_skips) == (2, 1, 3)
        assert (ledger.events_emitted, ledger.batches_emitted, ledger.wall_seconds) == (4, 3, 0.25)
