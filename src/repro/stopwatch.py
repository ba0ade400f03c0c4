"""The one wall clock outside the service layer.

Wall time here is display-only: span timings, ledger ``wall_seconds`` and
prepare durations, all excluded from result fingerprints.  Every such read
goes through :class:`Stopwatch`, so no other engine module imports ``time``.
"""

from __future__ import annotations

import time


class Stopwatch:
    """Started on construction; :meth:`elapsed` is seconds since then."""

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._started


__all__ = ["Stopwatch"]
