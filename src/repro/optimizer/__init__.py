"""Cost-based query optimizer: operators and physical plans.

The planning stack has two layers (Section 5):

* **physical operators** (:mod:`repro.optimizer.operators`) are the
  composable, stream-compatible stages — scans, samplers, rankers, filter
  cascades, verifiers, track aggregation — that the four plan classes are
  built from;
* the **cost-based optimizer** (:mod:`repro.optimizer.cost`) enumerates
  alternative operator trees per analyzed query, prices them from the
  statistics catalog (:mod:`repro.catalog`) in estimated detector calls plus
  specialization training cost, and picks the cheapest.

Every plan executes through the pull-based streaming protocol of
:mod:`repro.core.events`: ``plan.run(context, control)`` yields typed
:class:`~repro.core.events.ExecutionEvent` objects ending in one
``Completed``.  Executions are opened by
:meth:`repro.api.session.PreparedQuery.stream`, the one entry point.  The
event types are re-exported here so the optimizer package is a complete,
typed surface for plan authors.
"""

from repro.core.events import (
    Completed,
    EstimateUpdate,
    ExecutionControl,
    ExecutionEvent,
    Progress,
    ScrubbingHit,
    SelectionWindow,
    StopConditions,
)
from repro.optimizer.base import CostEstimate, PhysicalPlan
from repro.optimizer.aggregates import AggregateQueryPlan
from repro.optimizer.cost import CostBasedOptimizer, PlanCandidate, PlanDecision
from repro.optimizer.scrubbing import ScrubbingQueryPlan
from repro.optimizer.selection import SelectionQueryPlan
from repro.optimizer.exact import ExactQueryPlan

__all__ = [
    "PhysicalPlan",
    "CostEstimate",
    "AggregateQueryPlan",
    "ScrubbingQueryPlan",
    "SelectionQueryPlan",
    "ExactQueryPlan",
    "CostBasedOptimizer",
    "PlanCandidate",
    "PlanDecision",
    "ExecutionEvent",
    "ExecutionControl",
    "Progress",
    "EstimateUpdate",
    "ScrubbingHit",
    "SelectionWindow",
    "Completed",
    "StopConditions",
]
