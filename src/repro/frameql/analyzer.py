"""Semantic analysis of parsed FrameQL queries.

The analyzer validates a parsed :class:`~repro.frameql.ast.Query` against the
FrameQL schema and classifies it into one of the query classes the optimizer
knows how to execute (Section 5):

* **aggregate** — ``SELECT FCOUNT(*)/COUNT(*) ...`` possibly with an error
  tolerance and confidence;
* **scrubbing** — ``SELECT timestamp ... GROUP BY timestamp HAVING
  SUM(class='bus') >= 1 AND ... LIMIT k GAP g``;
* **selection** — content-based selection such as the red-bus query of
  Figure 3c, including UDF predicates, spatial constraints and per-track
  duration constraints;
* **exact** — anything else, which falls back to exhaustive detection.

The output is a typed query specification consumed by the rule-based
optimizer; nothing downstream ever re-inspects the AST.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import FrameQLAnalysisError
from repro.frameql.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    Query,
    Star,
    conjuncts,
    walk,
)
from repro.frameql.schema import is_valid_column

_AGGREGATE_FUNCTIONS = {"FCOUNT", "COUNT", "SUM", "AVG", "MIN", "MAX"}
_FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
_SPATIAL_FUNCTIONS = {"xmin", "xmax", "ymin", "ymax"}


class QueryKind(enum.Enum):
    """The query classes the optimizer distinguishes."""

    AGGREGATE = "aggregate"
    SCRUBBING = "scrubbing"
    SELECTION = "selection"
    EXACT = "exact"


@dataclass(frozen=True)
class UdfPredicate:
    """A predicate of the form ``udf(column) <op> value``."""

    udf_name: str
    column: str
    op: str
    value: float | str


@dataclass(frozen=True)
class SpatialConstraint:
    """A constraint on the mask's extent, e.g. ``xmax(mask) < 720``."""

    axis: str  # "xmin", "xmax", "ymin" or "ymax"
    op: str
    value: float


@dataclass
class BaseQuerySpec:
    """Fields common to every analyzed query."""

    video: str
    kind: QueryKind
    raw_query: Query


@dataclass
class AggregateQuerySpec(BaseQuerySpec):
    """An aggregation query (Section 6)."""

    aggregate: str = "fcount"  # "fcount", "count", "count_distinct" or "avg"
    object_class: str | None = None
    error_tolerance: float | None = None
    confidence: float = 0.95
    udf_predicates: list[UdfPredicate] = field(default_factory=list)


@dataclass
class ScrubbingQuerySpec(BaseQuerySpec):
    """A cardinality-limited scrubbing query (Section 7)."""

    min_counts: dict[str, int] = field(default_factory=dict)
    limit: int = 10
    gap: int = 0


@dataclass
class SelectionQuerySpec(BaseQuerySpec):
    """A content-based selection query (Section 8)."""

    object_class: str | None = None
    udf_predicates: list[UdfPredicate] = field(default_factory=list)
    spatial_constraints: list[SpatialConstraint] = field(default_factory=list)
    min_area: float | None = None
    max_area: float | None = None
    min_track_frames: int | None = None
    time_range: tuple[float | None, float | None] = (None, None)
    fnr_within: float | None = None
    fpr_within: float | None = None
    select_columns: list[str] = field(default_factory=list)
    select_star: bool = False


@dataclass
class ExactQuerySpec(BaseQuerySpec):
    """A query the optimizer cannot accelerate; runs exhaustive detection."""

    reason: str = ""


QuerySpec = AggregateQuerySpec | ScrubbingQuerySpec | SelectionQuerySpec | ExactQuerySpec


# -- accuracy clauses ----------------------------------------------------------
#
# One rule per clause, shared by the query text (checked at analysis), the
# builder and the re-binding of a prepared query.


def _number(name: str, value: Any) -> float:
    try:
        result = float(value)
    except (TypeError, ValueError):
        result = math.nan
    if not math.isfinite(result):
        raise FrameQLAnalysisError(f"{name} must be a finite number, got {value!r}")
    return result


def positive_number(name: str, value: Any) -> float:
    """``value`` as a float, which must be positive (``ERROR WITHIN``)."""
    result = _number(name, value)
    if not result > 0:
        raise FrameQLAnalysisError(f"{name} must be positive, got {value!r}")
    return result


def confidence_fraction(name: str, value: Any) -> float:
    """``value`` as a confidence level, which must lie in (0, 1)."""
    result = positive_number(name, value)
    if result >= 1.0:
        raise FrameQLAnalysisError(
            f"{name} must be in (0, 1) (or (0, 100) as a percentage), got {value!r}"
        )
    return result


def confidence_level(name: str, value: Any) -> float:
    """A written confidence level: above 1 it is a percentage (95 is 95%)."""
    result = positive_number(name, value)
    return confidence_fraction(name, result / 100.0 if result > 1.0 else result)


def error_rate(name: str, value: Any) -> float:
    """``value`` as a false-negative or false-positive rate, in [0, 1)."""
    result = _number(name, value)
    if not 0.0 <= result < 1.0:
        raise FrameQLAnalysisError(f"{name} must be in [0, 1), got {value!r}")
    return result


#: Per accuracy clause attribute: its text, the query class it bounds, its rule.
_ACCURACY_CLAUSES = {
    "error_within": ("ERROR WITHIN", QueryKind.AGGREGATE, positive_number),
    "confidence": ("AT CONFIDENCE", QueryKind.AGGREGATE, confidence_fraction),
    "fnr_within": ("FNR WITHIN", QueryKind.SELECTION, error_rate),
    "fpr_within": ("FPR WITHIN", QueryKind.SELECTION, error_rate),
}


# -- helpers -------------------------------------------------------------------


def _validate_accuracy(spec: QuerySpec) -> QuerySpec:
    """``spec``, once each accuracy clause it states is in range and bounds
    its class (the parser has already read ``AT CONFIDENCE`` as a fraction)."""
    for attribute, (text, kind, rule) in _ACCURACY_CLAUSES.items():
        value = getattr(spec.raw_query, attribute)
        if value is None:
            continue
        rule(attribute, value)
        if spec.kind is not kind:
            raise FrameQLAnalysisError(
                f"{text} applies only to {kind.value} queries, not to "
                f"{spec.kind.value} queries"
            )
    return spec


def _validate_columns(query: Query) -> None:
    """Check that every plain column reference names a schema column."""
    expressions: list[Expression] = [item.expression for item in query.select]
    if query.where is not None:
        expressions.append(query.where)
    if query.having is not None:
        expressions.append(query.having)
    expressions.extend(query.group_by)
    for expression in expressions:
        for node in walk(expression):
            if isinstance(node, ColumnRef) and not is_valid_column(node.name):
                raise FrameQLAnalysisError(
                    f"unknown column {node.name!r}; valid columns are the "
                    "FrameQL schema fields (timestamp, class, mask, trackid, "
                    "content, features)"
                )


def _normalize_comparison(expr: BinaryOp) -> BinaryOp:
    """Rewrite ``literal <op> expr`` as ``expr <flipped-op> literal``."""
    if isinstance(expr.left, Literal) and not isinstance(expr.right, Literal):
        return BinaryOp(_FLIPPED_OPS[expr.op], expr.right, expr.left)
    return expr


def _literal_value(expression: Expression) -> float | str:
    if not isinstance(expression, Literal):
        raise FrameQLAnalysisError(
            f"expected a literal value, found {expression}"
        )
    return expression.value


def _is_aggregate_call(expression: Expression) -> bool:
    return (
        isinstance(expression, FunctionCall)
        and expression.name.upper() in _AGGREGATE_FUNCTIONS
    )


# -- WHERE clause extraction ------------------------------------------------------


@dataclass
class _WhereFacts:
    object_class: str | None = None
    udf_predicates: list[UdfPredicate] = field(default_factory=list)
    spatial_constraints: list[SpatialConstraint] = field(default_factory=list)
    min_area: float | None = None
    max_area: float | None = None
    time_min: float | None = None
    time_max: float | None = None


def _extract_where_facts(where: Expression | None) -> _WhereFacts:
    facts = _WhereFacts()
    for predicate in conjuncts(where):
        if not isinstance(predicate, BinaryOp):
            raise FrameQLAnalysisError(
                f"unsupported WHERE predicate {predicate}; expected comparisons "
                "joined by AND"
            )
        if predicate.op in ("AND", "OR"):
            raise FrameQLAnalysisError(
                "OR in the WHERE clause is not supported by the optimizer"
            )
        predicate = _normalize_comparison(predicate)
        left, op, right = predicate.left, predicate.op, predicate.right

        if isinstance(left, ColumnRef) and left.name == "class" and op == "=":
            facts.object_class = str(_literal_value(right))
            continue
        if isinstance(left, ColumnRef) and left.name == "timestamp":
            value = float(_literal_value(right))
            if op in (">", ">="):
                facts.time_min = value
            elif op in ("<", "<="):
                facts.time_max = value
            else:
                raise FrameQLAnalysisError(
                    f"unsupported timestamp predicate operator {op!r}"
                )
            continue
        if isinstance(left, FunctionCall):
            name = left.name.lower()
            if len(left.args) != 1 or not isinstance(left.args[0], ColumnRef):
                raise FrameQLAnalysisError(
                    f"UDF predicates must take a single column argument: {left}"
                )
            column = left.args[0].name
            value = _literal_value(right)
            if name == "area" and column == "mask":
                if op in (">", ">="):
                    facts.min_area = float(value)
                elif op in ("<", "<="):
                    facts.max_area = float(value)
                else:
                    raise FrameQLAnalysisError(
                        f"unsupported area predicate operator {op!r}"
                    )
                continue
            if name in _SPATIAL_FUNCTIONS and column == "mask":
                facts.spatial_constraints.append(
                    SpatialConstraint(axis=name, op=op, value=float(value))
                )
                continue
            facts.udf_predicates.append(
                UdfPredicate(udf_name=name, column=column, op=op, value=value)
            )
            continue
        raise FrameQLAnalysisError(f"unsupported WHERE predicate {predicate}")
    return facts


# -- HAVING clause extraction (scrubbing & track duration) -------------------------


def _extract_min_counts(having: Expression | None) -> dict[str, int]:
    """Extract ``SUM(class='bus') >= 1`` style per-class count thresholds."""
    min_counts: dict[str, int] = {}
    for predicate in conjuncts(having):
        if not isinstance(predicate, BinaryOp):
            raise FrameQLAnalysisError(f"unsupported HAVING predicate {predicate}")
        predicate = _normalize_comparison(predicate)
        left, op, right = predicate.left, predicate.op, predicate.right
        if not isinstance(left, FunctionCall) or left.name.upper() not in ("SUM", "COUNT"):
            raise FrameQLAnalysisError(
                f"scrubbing HAVING predicates must be SUM/COUNT comparisons: {predicate}"
            )
        threshold = float(_literal_value(right))
        if op == ">=":
            min_count = int(threshold)
        elif op == ">":
            min_count = int(threshold) + 1
        elif op == "=":
            min_count = int(threshold)
        else:
            raise FrameQLAnalysisError(
                f"unsupported HAVING operator {op!r} for count predicates"
            )
        if len(left.args) != 1:
            raise FrameQLAnalysisError(
                f"expected a single argument in {left}"
            )
        arg = left.args[0]
        if isinstance(arg, BinaryOp) and arg.op == "=":
            inner = _normalize_comparison(arg)
            if isinstance(inner.left, ColumnRef) and inner.left.name == "class":
                object_class = str(_literal_value(inner.right))
                min_counts[object_class] = max(min_counts.get(object_class, 0), min_count)
                continue
        raise FrameQLAnalysisError(
            f"unsupported count predicate argument {arg}; expected class='<name>'"
        )
    return min_counts


def _extract_track_duration(having: Expression | None) -> int | None:
    """Extract a ``COUNT(*) > 15`` per-track duration constraint."""
    if having is None:
        return None
    duration: int | None = None
    for predicate in conjuncts(having):
        if not isinstance(predicate, BinaryOp):
            raise FrameQLAnalysisError(f"unsupported HAVING predicate {predicate}")
        predicate = _normalize_comparison(predicate)
        left, op, right = predicate.left, predicate.op, predicate.right
        if (
            isinstance(left, FunctionCall)
            and left.name.upper() == "COUNT"
            and len(left.args) == 1
            and isinstance(left.args[0], Star)
        ):
            threshold = float(_literal_value(right))
            if op == ">":
                duration = int(threshold) + 1
            elif op == ">=":
                duration = int(threshold)
            else:
                raise FrameQLAnalysisError(
                    f"unsupported track-duration operator {op!r}"
                )
            continue
        raise FrameQLAnalysisError(
            f"unsupported HAVING predicate for trackid grouping: {predicate}"
        )
    return duration


# -- classification -----------------------------------------------------------------


def _classify_aggregate(query: Query, facts: _WhereFacts) -> AggregateQuerySpec | None:
    if len(query.select) != 1:
        return None
    expression = query.select[0].expression
    if not _is_aggregate_call(expression):
        return None
    if query.group_by:
        return None
    call = expression
    name = call.name.upper()
    if name == "FCOUNT":
        aggregate = "fcount"
    elif name == "COUNT" and call.distinct:
        aggregate = "count_distinct"
    elif name == "COUNT":
        aggregate = "count"
    elif name == "AVG":
        aggregate = "avg"
    else:
        return None
    return AggregateQuerySpec(
        video=query.video,
        kind=QueryKind.AGGREGATE,
        raw_query=query,
        aggregate=aggregate,
        object_class=facts.object_class,
        error_tolerance=query.error_within,
        confidence=query.confidence if query.confidence is not None else 0.95,
        udf_predicates=facts.udf_predicates,
    )


def _classify_scrubbing(query: Query, facts: _WhereFacts) -> ScrubbingQuerySpec | None:
    group_columns = [c.name for c in query.group_by]
    if group_columns != ["timestamp"]:
        return None
    if len(query.select) != 1:
        return None
    selected = query.select[0].expression
    if not (isinstance(selected, ColumnRef) and selected.name == "timestamp"):
        return None
    min_counts = _extract_min_counts(query.having)
    if facts.object_class is not None and facts.object_class not in min_counts:
        min_counts[facts.object_class] = max(min_counts.get(facts.object_class, 0), 1)
    if not min_counts:
        raise FrameQLAnalysisError(
            "scrubbing queries need at least one class-count predicate in HAVING"
        )
    return ScrubbingQuerySpec(
        video=query.video,
        kind=QueryKind.SCRUBBING,
        raw_query=query,
        min_counts=min_counts,
        limit=query.limit if query.limit is not None else 10,
        gap=query.gap or 0,
    )


def _classify_selection(query: Query, facts: _WhereFacts) -> SelectionQuerySpec | None:
    group_columns = [c.name for c in query.group_by]
    if group_columns not in ([], ["trackid"]):
        return None
    select_star = any(isinstance(item.expression, Star) for item in query.select)
    select_columns: list[str] = []
    for item in query.select:
        if isinstance(item.expression, Star):
            continue
        if isinstance(item.expression, ColumnRef):
            select_columns.append(item.expression.name)
        else:
            return None
    min_track_frames = None
    if group_columns == ["trackid"]:
        min_track_frames = _extract_track_duration(query.having)
    elif query.having is not None:
        return None
    if facts.object_class is None and not facts.udf_predicates:
        # No content to select on; fall through to the exact plan.
        return None
    return SelectionQuerySpec(
        video=query.video,
        kind=QueryKind.SELECTION,
        raw_query=query,
        object_class=facts.object_class,
        udf_predicates=facts.udf_predicates,
        spatial_constraints=facts.spatial_constraints,
        min_area=facts.min_area,
        max_area=facts.max_area,
        min_track_frames=min_track_frames,
        time_range=(facts.time_min, facts.time_max),
        fnr_within=query.fnr_within,
        fpr_within=query.fpr_within,
        select_columns=select_columns,
        select_star=select_star,
    )


def analyze(query: Query) -> QuerySpec:
    """Validate and classify a parsed FrameQL query.

    Raises :class:`~repro.errors.FrameQLAnalysisError` for semantically
    invalid queries (unknown columns, unsupported predicate shapes, accuracy
    clauses out of range or of another query class).
    """
    if not query.video:
        raise FrameQLAnalysisError("query has no FROM video")
    if not query.select:
        raise FrameQLAnalysisError("query selects nothing")
    _validate_columns(query)
    facts = _extract_where_facts(query.where)

    spec = (
        _classify_scrubbing(query, facts)
        or _classify_aggregate(query, facts)
        or _classify_selection(query, facts)
        or ExactQuerySpec(
            video=query.video,
            kind=QueryKind.EXACT,
            raw_query=query,
            reason="query shape not recognised by the rule-based optimizer",
        )
    )
    return _validate_accuracy(spec)
