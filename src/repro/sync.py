"""One lock and the state it guards.

Thread-shared state in ``repro`` lives inside a :class:`Guarded`: an owner
keeps its lock-protected fields on one private state object and reaches them
only through ``with self._state as s:``.  A field written outside the block
has nothing to write to, so "mutated only under its lock" is structure
rather than a convention.

Lock *order* is checked at run time, not here: the test suite replaces
:meth:`Guarded.__enter__` / :meth:`Guarded.__exit__` with a lockdep-style
checker (``tests/lockdep.py``), so production code carries no flag and no
bookkeeping.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, TypeVar

_T = TypeVar("_T")


class Guarded(Generic[_T]):
    """``state`` plus the lock that guards it: ``with guard as s:`` holds the
    lock and hands out the state.

    The lock is not reentrant: a thread that enters a guard it already holds
    deadlocks, which the test suite's lockdep reports as an error instead.
    Built with ``condition=True`` the lock is a :class:`threading.Condition`
    over such a lock, and a holder may :meth:`wait_for` a predicate over the
    state and :meth:`notify_all` waiters.
    """

    __slots__ = ("_lock", "_state")

    def __init__(self, state: _T, *, condition: bool = False) -> None:
        self._lock: threading.Condition | threading.Lock = (
            threading.Condition(threading.Lock()) if condition else threading.Lock()
        )
        self._state = state

    def __enter__(self) -> _T:
        self._lock.acquire()
        return self._state

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()

    def wait_for(self, predicate: Callable[[], bool], timeout: float | None = None) -> bool:
        """Release the lock until ``predicate()`` holds or ``timeout`` passes;
        the caller holds the guard.  Returns the predicate's last value."""
        assert isinstance(self._lock, threading.Condition), "built without condition=True"
        return self._lock.wait_for(predicate, timeout)

    def notify_all(self) -> None:
        """Wake every thread in :meth:`wait_for`; the caller holds the guard."""
        assert isinstance(self._lock, threading.Condition), "built without condition=True"
        self._lock.notify_all()


__all__ = ["Guarded"]
