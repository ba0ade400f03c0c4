"""BlazeIt reproduction: declarative aggregation and limit queries over video.

This package reproduces the system described in "BlazeIt: Optimizing
Declarative Aggregation and Limit Queries for Neural Network-Based Video
Analytics" (VLDB 2019) on a synthetic video substrate: a FrameQL query
language, a rule-based optimizer, and the aggregation (control variates),
scrubbing (importance sampling) and content-based selection (filter inference)
optimizations.

Quick start (session API — prepare once, execute many)::

    from repro import BlazeIt, Q, FCOUNT

    engine = BlazeIt()
    engine.register_scenario("taipei", num_frames=4000)

    with engine.session() as session:
        prepared = session.prepare(
            Q.select(FCOUNT()).from_("taipei").where(cls="car")
            .error_within(0.1).confidence(0.95)
        )
        result = prepared.execute()
        print(result.value, result.method, result.runtime_seconds)
        print(prepared.explain().render())

Streaming execution (incremental results and early termination)::

    from repro import Completed, EstimateUpdate, StopConditions

    for event in session.stream(prepared.text, stop=StopConditions(ci_width=0.5)):
        if isinstance(event, EstimateUpdate):
            print(f"estimate={event.estimate:.2f} ± {event.half_width:.3f}")
        elif isinstance(event, Completed):
            print("final:", event.result.value)

One-shot queries still work (``engine.query(text)``), paying the full
parse/plan cost per call.
"""

from repro.api import (
    AVG,
    COUNT,
    FCOUNT,
    NO_HINTS,
    NO_STOP,
    Q,
    SUM,
    Completed,
    EstimateUpdate,
    ExecutionControl,
    ExecutionEvent,
    ExecutionStream,
    OperatorNode,
    PlanExplanation,
    PreparedQuery,
    Progress,
    QueryBuilder,
    QueryHints,
    QuerySession,
    ScrubbingHit,
    SelectionWindow,
    SessionStats,
    ShardProgress,
    StopConditions,
    area,
    class_is,
    col,
    fn,
    lit,
    star,
    udf,
    xmax,
    xmin,
    ymax,
    ymin,
)
from repro.core.config import AggregateMethod, BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.labeled_set import LabeledSet
from repro.core.recorded import RecordedDetections
from repro.core.results import (
    AggregateResult,
    ExactResult,
    QueryResult,
    ScrubbingQueryResult,
    SelectionResult,
)
from repro.detection.simulated import SimulatedDetector
from repro.errors import (
    BlazeItError,
    FrameQLAnalysisError,
    FrameQLSyntaxError,
    QueryParameterError,
)
from repro.frameql.analyzer import analyze
from repro.frameql.parser import parse
from repro.metrics.runtime import ExecutionLedger, RuntimeLedger, StandardCosts
from repro.parallel.cache import SharedDetectionCache
from repro.video.scenarios import generate_scenario, list_scenarios
from repro.video.synthetic import SyntheticVideo

__version__ = "1.2.0"

__all__ = [
    "BlazeIt",
    "BlazeItConfig",
    "AggregateMethod",
    "QuerySession",
    "PreparedQuery",
    "SessionStats",
    "QueryBuilder",
    "Q",
    "QueryHints",
    "NO_HINTS",
    "StopConditions",
    "NO_STOP",
    "ExecutionStream",
    "ExecutionControl",
    "ExecutionEvent",
    "ExecutionLedger",
    "Progress",
    "EstimateUpdate",
    "ShardProgress",
    "SharedDetectionCache",
    "ScrubbingHit",
    "SelectionWindow",
    "Completed",
    "PlanExplanation",
    "OperatorNode",
    "FCOUNT",
    "COUNT",
    "SUM",
    "AVG",
    "col",
    "lit",
    "fn",
    "star",
    "udf",
    "area",
    "class_is",
    "xmin",
    "xmax",
    "ymin",
    "ymax",
    "LabeledSet",
    "RecordedDetections",
    "QueryResult",
    "AggregateResult",
    "ScrubbingQueryResult",
    "SelectionResult",
    "ExactResult",
    "SimulatedDetector",
    "SyntheticVideo",
    "generate_scenario",
    "list_scenarios",
    "parse",
    "analyze",
    "RuntimeLedger",
    "StandardCosts",
    "BlazeItError",
    "FrameQLSyntaxError",
    "FrameQLAnalysisError",
    "QueryParameterError",
    "__version__",
]
