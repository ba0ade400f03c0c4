"""The composable physical operator library.

Each operator is one reusable, ``_stream``-compatible stage extracted from
the monolithic plan bodies; the four plan classes are now compositions over
this catalog, and the cost-based optimizer enumerates alternative operator
trees built from it:

===========================  ====================================================
Operator                     Role
===========================  ====================================================
:class:`FullScan`            exhaustive detection over every frame
:class:`SpecializedInference` train a count NN; rewrite the query with it
:class:`RandomSampler`       traditional AQP with the CLT stopping rule
:class:`ControlVariateSampler` variance-reduced sampling (NN as auxiliary)
:class:`ImportanceOrderedScan` rank frames by NN conjunction confidence
:class:`FilterCascade`       calibrated no-false-negative frame filters
:class:`DetectorVerifier`    chunked detector verification down a ranking
:class:`TrackAggregator`     IoU track resolution and record materialisation
===========================  ====================================================
"""

from repro.optimizer.operators.base import PhysicalOperator
from repro.optimizer.operators.filters import FilterCascade, predicate_mask
from repro.optimizer.operators.importance import ImportanceOrderedScan
from repro.optimizer.operators.sampling import ControlVariateSampler, RandomSampler
from repro.optimizer.operators.scan import FullScan
from repro.optimizer.operators.specialized import SpecializedInference
from repro.optimizer.operators.tracks import TrackAggregator
from repro.optimizer.operators.verify import DetectorVerifier

__all__ = [
    "PhysicalOperator",
    "FullScan",
    "SpecializedInference",
    "RandomSampler",
    "ControlVariateSampler",
    "ImportanceOrderedScan",
    "FilterCascade",
    "DetectorVerifier",
    "TrackAggregator",
    "predicate_mask",
]
