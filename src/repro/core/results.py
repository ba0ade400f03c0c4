"""Query result and plan-explanation types returned by the engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.frameql.records import RecordTable
from repro.metrics.runtime import ExecutionLedger, RuntimeLedger
from repro.obs.profile import ExecutionProfile
from repro.wire import OMIT_NONE, Tagged


@dataclass(frozen=True)
class OperatorNode:
    """One node of a physical plan's operator tree.

    ``detail`` carries operator-specific parameters (thresholds, filter
    classes, sampling configuration) as a short human-readable string.
    ``estimated_detector_calls`` and ``estimated_seconds`` are per-operator
    cost estimates from the statistics catalog; they are ``None`` on trees
    built without statistics (and on decision/bookkeeping nodes that cost
    nothing worth showing).
    """

    name: str
    detail: str = ""
    children: tuple[OperatorNode, ...] = ()
    estimated_detector_calls: int | None = None
    estimated_seconds: float | None = None

    def render(self, indent: int = 0) -> str:
        """Multi-line indented rendering of the subtree."""
        label = f"{self.name}({self.detail})" if self.detail else self.name
        costs = []
        if self.estimated_detector_calls is not None:
            costs.append(f"~{self.estimated_detector_calls} detector calls")
        if self.estimated_seconds is not None:
            costs.append(f"~{self.estimated_seconds:.2f}s")
        if costs:
            label += f" [{', '.join(costs)}]"
        lines = ["  " * indent + label]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def flatten(self) -> list[str]:
        """Every operator name in the subtree, depth first."""
        names = [self.name]
        for child in self.children:
            names.extend(child.flatten())
        return names


@dataclass(frozen=True)
class PlanCandidateSummary:
    """One alternative the cost-based optimizer considered for a query.

    ``detector_calls`` and ``total_seconds`` are the candidate's estimated
    cost; ``chosen`` marks the alternative the optimizer (or a
    ``force_plan`` hint) actually selected.
    """

    name: str
    detector_calls: int
    total_seconds: float
    chosen: bool = False
    reason: str = ""

    def describe(self) -> str:
        """One-line rendering used by :meth:`PlanExplanation.render`."""
        text = f"{self.name}: ~{self.detector_calls} detector calls, ~{self.total_seconds:.2f}s"
        if self.chosen:
            text += " <- chosen"
        return text


@dataclass(frozen=True)
class PlanExplanation:
    """Structured description of the plan chosen for a query.

    ``str()`` preserves the historical one-line ``"<kind>: <plan>"`` format;
    the structured fields carry everything the one-liner used to hide: the
    operator tree (with per-operator cost estimates when statistics are
    available), the estimated number of object-detector invocations, the
    hints that shaped the plan and the alternatives the cost-based optimizer
    priced before choosing.
    """

    kind: str
    plan_summary: str
    operators: OperatorNode
    estimated_detector_calls: int
    hints_applied: str = "none"
    candidates: tuple[PlanCandidateSummary, ...] = ()
    #: The optimizer's parallelism verdict for routed execution — backend,
    #: worker count and justification (empty when not computed, e.g. plans
    #: built outside the cost-based optimizer).
    parallelism: str = ""

    def __str__(self) -> str:
        return f"{self.kind}: {self.plan_summary}"

    def render(self) -> str:
        """Multi-line rendering: summary, tree, estimates, hints, candidates."""
        lines = [
            str(self),
            self.operators.render(indent=1),
            f"  estimated detector calls: {self.estimated_detector_calls}",
            f"  hints: {self.hints_applied}",
        ]
        if self.parallelism:
            lines.append(f"  parallelism: {self.parallelism}")
        if self.candidates:
            lines.append("  candidates:")
            lines.extend(f"    {candidate.describe()}" for candidate in self.candidates)
        return "\n".join(lines)


@dataclass
class QueryResult(Tagged):
    """Fields common to every query result.

    Results are a :class:`~repro.wire.Tagged` family: every subclass must
    define its own ``wire_name`` (the payload's ``"type"``), and the wire
    form of a result is its dataclass fields — there is no other list.

    Attributes
    ----------
    kind:
        The query class that was executed (``aggregate``, ``scrubbing``,
        ``selection`` or ``exact``).
    method:
        The physical strategy the optimizer chose (e.g.
        ``"specialized_rewrite"``, ``"control_variates"``, ``"importance"``).
    ledger:
        Simulated-runtime ledger for the execution.
    detection_calls:
        Number of full object-detection invocations charged.
    plan_description:
        Human-readable description of the executed plan.
    stop_reason:
        Why execution ended early (``"limit"``, ``"ci_width"``,
        ``"max_detector_calls"`` or ``"cancelled"``), or ``None`` when the
        plan ran to natural completion.  Blocking callers use this to tell a
        truncated partial answer from a full one without consuming the event
        stream themselves.
    """

    wire_key: ClassVar[str] = "type"
    wire_name: ClassVar[str] = "base"

    kind: str
    method: str
    ledger: RuntimeLedger = field(default_factory=RuntimeLedger)
    detection_calls: int = 0
    plan_description: str = ""
    stop_reason: str | None = None
    #: EXPLAIN ANALYZE payload, attached when the execution was traced
    #: (``execute(analyze=True)`` or an enabled tracer).  Display-only:
    #: excluded from equality and from wire fingerprints, so traced results
    #: stay byte-identical to untraced ones.
    profile: ExecutionProfile | None = field(default=None, compare=False, metadata=OMIT_NONE)

    @property
    def runtime_seconds(self) -> float:
        """Total simulated runtime of the query."""
        return self.ledger.total_seconds

    @property
    def execution_ledger(self) -> ExecutionLedger:
        """The per-execution ledger (frames decoded, detector calls, batches).

        Every plan executed through the streaming protocol attaches an
        :class:`~repro.metrics.runtime.ExecutionLedger`; results constructed
        by hand (baselines, tests) may carry a plain ``RuntimeLedger``, which
        raises here to make the missing accounting explicit.
        """
        if not isinstance(self.ledger, ExecutionLedger):
            raise TypeError(
                "this result was not produced by the streaming execution "
                "protocol; its ledger carries no execution counters"
            )
        return self.ledger


@dataclass
class AggregateResult(QueryResult):
    """Result of an aggregate query."""

    wire_name: ClassVar[str] = "aggregate"

    value: float = 0.0
    error_tolerance: float | None = None
    confidence: float = 0.95
    samples_used: int = 0
    half_width: float = 0.0
    correlation: float | None = None


@dataclass
class ScrubbingQueryResult(QueryResult):
    """Result of a cardinality-limited scrubbing query."""

    wire_name: ClassVar[str] = "scrubbing"

    frames: list[int] = field(default_factory=list)
    timestamps: list[float] = field(default_factory=list)
    limit: int = 0
    satisfied: bool = False


@dataclass
class SelectionResult(QueryResult):
    """Result of a content-based selection query.

    ``records`` is a :class:`~repro.frameql.records.RecordTable`: the rows
    stay columns, and a ``FrameRecord`` is built only when one is read.
    """

    wire_name: ClassVar[str] = "selection"

    records: RecordTable = field(default_factory=RecordTable.empty)
    matched_frames: list[int] = field(default_factory=list)
    frames_scanned: int = 0
    frames_after_filters: int = 0


@dataclass
class ExactResult(QueryResult):
    """Result of an exact (unoptimized) query (``records`` as in
    :class:`SelectionResult`)."""

    wire_name: ClassVar[str] = "exact"

    records: RecordTable = field(default_factory=RecordTable.empty)
    value: float | None = None
