"""Baseline scrubbing strategies (Section 10.3).

* **Naive** — run the object detector over frames in sequential order until
  the requested number of matching frames is found.
* **NoScope oracle** — restrict the scan to frames the oracle says contain the
  object class(es) of interest, then verify with the detector.  The oracle is
  free to query, making this baseline strictly stronger than real NoScope.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.scrubbing.importance import ScrubbingResult, scrub_ordered


def sequential_scrub(
    num_frames: int,
    verify_fn: Callable[[int], bool],
    limit: int,
    gap: int = 0,
) -> ScrubbingResult:
    """Scan frames in order 0, 1, 2, ... verifying each with the detector."""
    return scrub_ordered(np.arange(num_frames), verify_fn, limit, gap)


def noscope_oracle_scrub(
    presence_mask: np.ndarray,
    verify_fn: Callable[[int], bool],
    limit: int,
    gap: int = 0,
) -> ScrubbingResult:
    """Scan only frames where the oracle reports the class(es) present.

    Parameters
    ----------
    presence_mask:
        Boolean array over all frames: ``True`` where every queried object
        class has at least one instance according to the (free) oracle.
    """
    presence_mask = np.asarray(presence_mask, dtype=bool)
    candidates = np.nonzero(presence_mask)[0]
    return scrub_ordered(candidates, verify_fn, limit, gap)
