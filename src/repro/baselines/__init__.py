"""Baseline strategies the paper compares against (Section 10.1.1).

* **Naive** — run the object detector on every frame (or, for scrubbing,
  sequentially until enough matches are found).
* **NoScope oracle** — an oracle, free to query, that reports per frame
  whether an object class is present; the detector is then run only on
  occupied frames.  This is strictly stronger than the real NoScope system.
* **Naive AQP** — uniform adaptive sampling of detector calls with no
  variance reduction.

All baselines read from a :class:`~repro.core.recorded.RecordedDetections`
recording and charge detector cost per frame "processed", matching the paper's
cost-extrapolation methodology.
"""

from repro.baselines.aggregates import (
    BaselineAggregateResult,
    naive_aggregate,
    naive_aqp_aggregate,
    noscope_oracle_aggregate,
)
from repro.baselines.scrubbing import (
    BaselineScrubResult,
    naive_scrub,
    noscope_oracle_scrub_baseline,
)
from repro.baselines.selection import (
    BaselineSelectionResult,
    naive_selection,
    noscope_oracle_selection,
)

__all__ = [
    "BaselineAggregateResult",
    "naive_aggregate",
    "noscope_oracle_aggregate",
    "naive_aqp_aggregate",
    "BaselineScrubResult",
    "naive_scrub",
    "noscope_oracle_scrub_baseline",
    "BaselineSelectionResult",
    "naive_selection",
    "noscope_oracle_selection",
]
