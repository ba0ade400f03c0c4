"""Lock order checked at run time, for every :class:`repro.sync.Guarded`.

``tests/conftest.py`` installs one :class:`Lockdep` for the whole test
session by replacing ``Guarded.__enter__`` / ``__exit__``; production code
never sees it.  Each thread keeps the guards it holds.  The first time a
thread enters a guard of site B while holding one of site A, the edge
A -> B joins a process-wide order graph, together with the stack that took
it.  Two mistakes raise :class:`LockOrderError` at the acquisition itself,
before the lock is touched, so they fail a test instead of hanging it:

* an edge that closes a cycle: some other path took the same sites in the
  opposite order (the message carries that path's stacks and this one);
* a thread entering a guard it already holds, which on the plain lock
  under a guard is a silent self-deadlock.

One node per site: nodes are keyed by the type of the guarded state, and
every site guards a state of its own type (a private ``_*State`` class; the
ledgers' instance ``dict``; the cancellation token's callback ``list``).
Every error is also kept in :attr:`Lockdep.violations`, so one raised on a
thread whose exception nobody reads (a query drainer, a shard worker) still
fails the test that caused it.
"""

from __future__ import annotations

import threading
import traceback
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.sync import Guarded

#: The real lock operations, captured before any checker is installed.
_ENTER = Guarded.__enter__
_EXIT = Guarded.__exit__


class LockOrderError(AssertionError):
    """A guard acquisition that can deadlock."""


def _site(guard: Guarded[Any]) -> type:
    return type(guard._state)


def _here() -> str:
    # Drop the lockdep frames: this one, ``_check`` and the two ``enter``s.
    return "".join(traceback.format_stack()[:-4])


class Lockdep:
    """The order graph, the per-thread held guards, and what went wrong."""

    def __init__(self) -> None:
        self._held = threading.local()
        self._mutex = threading.Lock()
        #: ``edges[a][b]``: the stack that first entered a ``b`` guard while
        #: holding an ``a`` guard.
        self._edges: dict[type, dict[type, str]] = {}
        self.violations: list[str] = []

    def _held_by_this_thread(self) -> list[Guarded[Any]]:
        held = getattr(self._held, "guards", None)
        if held is None:
            held = self._held.guards = []
        return held

    def enter(self, guard: Guarded[Any]) -> Any:
        held = self._held_by_this_thread()
        if held:
            self._check(guard, held)
        state = _ENTER(guard)
        held.append(guard)
        return state

    def exit(self, guard: Guarded[Any], *exc_info: object) -> None:
        held = self._held_by_this_thread()
        for position in range(len(held) - 1, -1, -1):
            if held[position] is guard:
                del held[position]
                break
        _EXIT(guard, *exc_info)

    def _check(self, guard: Guarded[Any], held: list[Guarded[Any]]) -> None:
        site = _site(guard)
        if any(other is guard for other in held):
            self._fail(
                f"re-entry: {threading.current_thread().name} enters a "
                f"{site.__qualname__} guard it already holds (a self-deadlock "
                f"on its non-reentrant lock), at:\n{_here()}"
            )
        with self._mutex:
            for holding in dict.fromkeys(_site(other) for other in held):
                known = self._edges.setdefault(holding, {})
                if site in known:
                    continue
                path = self._path(site, holding)
                if path == []:
                    self._fail(
                        f"nested sites: entering a second {site.__qualname__} "
                        f"guard while holding one (two threads nesting two "
                        f"instances in opposite order deadlock), at:\n{_here()}"
                    )
                if path is not None:
                    earlier = "".join(
                        f"\n{a.__qualname__} -> {b.__qualname__} first taken at:\n"
                        f"{self._edges[a][b]}"
                        for a, b in path
                    )
                    self._fail(
                        f"lock order cycle: entering {site.__qualname__} while "
                        f"holding {holding.__qualname__}, but the opposite order "
                        f"was taken before.{earlier}\n"
                        f"{holding.__qualname__} -> {site.__qualname__} here:\n{_here()}"
                    )
                known[site] = _here()

    def _path(self, start: type, goal: type) -> list[tuple[type, type]] | None:
        """Edges of one path ``start -> ... -> goal`` already in the graph
        (the empty path when they are the same site); ``None`` if none."""
        if start is goal:
            return []
        seen = {start}
        stack: list[tuple[type, list[tuple[type, type]]]] = [(start, [])]
        while stack:
            node, path = stack.pop()
            for successor in self._edges.get(node, {}):
                if successor is goal:
                    return [*path, (node, successor)]
                if successor not in seen:
                    seen.add(successor)
                    stack.append((successor, [*path, (node, successor)]))
        return None

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        raise LockOrderError(message)

    def take_violations(self) -> list[str]:
        """Every violation since the last call, clearing the list."""
        found, self.violations = self.violations, []
        return found


def install(lockdep: Lockdep) -> Callable[[], None]:
    """Route every ``Guarded`` acquisition through ``lockdep``; returns the undo."""
    previous = Guarded.__enter__, Guarded.__exit__

    def checked_enter(guard: Guarded[Any]) -> Any:
        return lockdep.enter(guard)

    def checked_exit(guard: Guarded[Any], *exc_info: object) -> None:
        lockdep.exit(guard, *exc_info)

    Guarded.__enter__ = checked_enter  # type: ignore[method-assign]
    Guarded.__exit__ = checked_exit  # type: ignore[method-assign]

    def undo() -> None:
        Guarded.__enter__, Guarded.__exit__ = previous  # type: ignore[method-assign]

    return undo


@contextmanager
def installed() -> Iterator[Lockdep]:
    """A fresh :class:`Lockdep` in place of the session's, for one test."""
    lockdep = Lockdep()
    undo = install(lockdep)
    try:
        yield lockdep
    finally:
        undo()
