"""Cardinality-limited scrubbing (Section 7).

Scrubbing queries ask for a fixed number of frames matching a predicate
(typically a rare joint event such as "at least one bus and at least five
cars").  The optimization ranks frames by a specialized-NN confidence signal
and runs the full detector down the ranking until the requested number of
verified frames is found, which is an importance-sampling-style bias towards
regions likely to contain the event.
"""

from repro.scrubbing.importance import ScrubbingResult, importance_scrub
from repro.scrubbing.baselines import (
    noscope_oracle_scrub,
    sequential_scrub,
)

__all__ = [
    "ScrubbingResult",
    "importance_scrub",
    "sequential_scrub",
    "noscope_oracle_scrub",
]
