"""Fluent FrameQL query builder.

The builder composes the FrameQL AST directly — no lexing or parsing — and is
guaranteed to produce exactly the tree :func:`repro.frameql.parser.parse`
would produce for the equivalent query text (the test suite asserts this for
every query class).  Clause methods return a new builder, so partial queries
can be shared and specialised without aliasing surprises::

    from repro.api import Q, FCOUNT, class_is, udf, area

    query = (
        Q.select(FCOUNT())
        .from_("taipei")
        .where(cls="car")
        .error_within(0.1)
        .confidence(0.95)
    )

    red_buses = (
        Q.select("*")
        .from_("taipei")
        .where(class_is("bus"), udf("redness") >= 17.5, area() > 100000)
        .group_by("trackid")
        .having(COUNT() > 15)
    )

Expressions lean on the operator overloads of
:class:`~repro.frameql.ast.Expression` (``>=``, ``>``, ``&``, ...); FrameQL
equality is spelled ``.eq()`` because ``==`` keeps its structural meaning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from repro.errors import FrameQLAnalysisError
from repro.frameql.analyzer import confidence_level, error_rate, positive_number
from repro.frameql.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    Query,
    SelectItem,
    Star,
)

# -- expression helpers ---------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """A reference to a FrameQL schema column."""
    return ColumnRef(name)


def lit(value: float | int | str) -> Literal:
    """A literal value."""
    return Literal(value)


def fn(name: str, *args: Expression, distinct: bool = False) -> FunctionCall:
    """A function or aggregate call over already-built expressions."""
    return FunctionCall(name, tuple(args), distinct=distinct)


def star() -> Star:
    """The ``*`` wildcard."""
    return Star()


def FCOUNT() -> FunctionCall:
    """``FCOUNT(*)``: the frame-averaged count (Table 2)."""
    return FunctionCall("FCOUNT", (Star(),))


def COUNT(arg: Expression | str | None = None, distinct: bool = False) -> FunctionCall:
    """``COUNT(*)`` / ``COUNT(column)`` / ``COUNT(DISTINCT column)``."""
    if arg is None:
        expression: Expression = Star()
    elif isinstance(arg, str):
        expression = Star() if arg == "*" else ColumnRef(arg)
    else:
        expression = arg
    return FunctionCall("COUNT", (expression,), distinct=distinct)


def SUM(arg: Expression) -> FunctionCall:
    """``SUM(expr)``, e.g. ``SUM(class_is('bus'))`` for scrubbing HAVING."""
    return FunctionCall("SUM", (arg,))


def AVG(arg: Expression | str) -> FunctionCall:
    """``AVG(column)``."""
    return FunctionCall("AVG", (ColumnRef(arg) if isinstance(arg, str) else arg,))


def class_is(name: str) -> BinaryOp:
    """The ``class = '<name>'`` predicate."""
    return BinaryOp("=", ColumnRef("class"), Literal(name))


def udf(name: str, column: str = "content") -> FunctionCall:
    """A UDF applied to a column, ready for comparison: ``udf('redness') >= 17.5``."""
    return FunctionCall(name, (ColumnRef(column),))


def area(column: str = "mask") -> FunctionCall:
    """The mask-area function: ``area() > 100000``."""
    return FunctionCall("area", (ColumnRef(column),))


def _spatial(axis: str):
    def make(column: str = "mask") -> FunctionCall:
        return FunctionCall(axis, (ColumnRef(column),))

    make.__name__ = axis
    make.__doc__ = f"The ``{axis}(mask)`` spatial extent function."
    return make


xmin = _spatial("xmin")
xmax = _spatial("xmax")
ymin = _spatial("ymin")
ymax = _spatial("ymax")

#: Python-friendly spellings for columns whose FrameQL names collide with
#: Python keywords (``where(cls="car")`` means ``WHERE class = 'car'``).
_KWARG_COLUMNS = {"cls": "class", "class_": "class"}


def _select_item(item: Expression | SelectItem | str) -> SelectItem:
    if isinstance(item, SelectItem):
        return item
    if isinstance(item, str):
        return SelectItem(Star() if item == "*" else ColumnRef(item))
    if isinstance(item, Expression):
        return SelectItem(item)
    raise FrameQLAnalysisError(f"cannot select {item!r}; expected an expression")


def _conjoin(conjuncts: tuple[Expression, ...]) -> Expression | None:
    """Fold conjuncts left-associatively, matching the parser's AND tree."""
    if not conjuncts:
        return None
    return functools.reduce(lambda left, right: BinaryOp("AND", left, right), conjuncts)


# -- the builder ---------------------------------------------------------------------


@dataclass(frozen=True)
class QueryBuilder:
    """An immutable, fluent FrameQL query under construction.

    Every clause method returns a *new* builder; :meth:`build` compiles the
    accumulated clauses to a :class:`~repro.frameql.ast.Query`.  Builders can
    be passed anywhere the session API accepts query text.
    """

    _select: tuple[SelectItem, ...] = ()
    _video: str = ""
    _where: tuple[Expression, ...] = ()
    _group_by: tuple[ColumnRef, ...] = ()
    _having: tuple[Expression, ...] = ()
    _error_within: float | None = None
    _fpr_within: float | None = None
    _fnr_within: float | None = None
    _confidence: float | None = None
    _limit: int | None = None
    _gap: int | None = None

    # -- clauses ------------------------------------------------------------------

    def select(self, *items: Expression | SelectItem | str) -> QueryBuilder:
        """Add items to the SELECT list (``"*"``, column names or expressions)."""
        if not items:
            raise FrameQLAnalysisError("select() needs at least one item")
        return replace(
            self, _select=self._select + tuple(_select_item(i) for i in items)
        )

    def from_(self, video: str) -> QueryBuilder:
        """Set the video the query runs over."""
        return replace(self, _video=video)

    def where(self, *predicates: Expression, **equalities: float | int | str) -> QueryBuilder:
        """AND one or more predicates into the WHERE clause.

        Positional arguments are expression predicates; keyword arguments are
        column equalities (``cls="car"`` spells ``class = 'car'``).
        """
        conjuncts = list(predicates)
        for column, value in equalities.items():
            column = _KWARG_COLUMNS.get(column, column)
            conjuncts.append(BinaryOp("=", ColumnRef(column), Literal(value)))
        if not conjuncts:
            raise FrameQLAnalysisError("where() needs at least one predicate")
        return replace(self, _where=self._where + tuple(conjuncts))

    def group_by(self, *columns: ColumnRef | str) -> QueryBuilder:
        """Add GROUP BY columns."""
        refs = tuple(ColumnRef(c) if isinstance(c, str) else c for c in columns)
        return replace(self, _group_by=self._group_by + refs)

    def having(self, *predicates: Expression) -> QueryBuilder:
        """AND one or more predicates into the HAVING clause."""
        if not predicates:
            raise FrameQLAnalysisError("having() needs at least one predicate")
        return replace(self, _having=self._having + tuple(predicates))

    def error_within(self, tolerance: float) -> QueryBuilder:
        """Set the ``ERROR WITHIN`` absolute error tolerance."""
        return replace(self, _error_within=positive_number("error_within", tolerance))

    def fpr_within(self, rate: float) -> QueryBuilder:
        """Set the ``FPR WITHIN`` false-positive-rate bound."""
        return replace(self, _fpr_within=error_rate("fpr_within", rate))

    def fnr_within(self, rate: float) -> QueryBuilder:
        """Set the ``FNR WITHIN`` false-negative-rate bound."""
        return replace(self, _fnr_within=error_rate("fnr_within", rate))

    def confidence(self, level: float) -> QueryBuilder:
        """Set the confidence level (``0.95`` and ``95`` both mean 95%)."""
        return replace(self, _confidence=confidence_level("confidence", level))

    def limit(self, count: int) -> QueryBuilder:
        """Set the ``LIMIT`` result cardinality."""
        return replace(self, _limit=int(count))

    def gap(self, frames: int) -> QueryBuilder:
        """Set the ``GAP`` minimum frame distance between results."""
        return replace(self, _gap=int(frames))

    # -- compilation --------------------------------------------------------------

    def build(self) -> Query:
        """Compile to the FrameQL AST (identical to parsing the query text)."""
        if not self._select:
            raise FrameQLAnalysisError("query selects nothing; call select() first")
        if not self._video:
            raise FrameQLAnalysisError("query has no FROM video; call from_() first")
        return Query(
            select=list(self._select),
            video=self._video,
            where=_conjoin(self._where),
            group_by=list(self._group_by),
            having=_conjoin(self._having),
            error_within=self._error_within,
            fpr_within=self._fpr_within,
            fnr_within=self._fnr_within,
            confidence=self._confidence,
            limit=self._limit,
            gap=self._gap,
        )

    def __str__(self) -> str:
        return str(self.build())


class Q:
    """Entry point for the fluent builder: ``Q.select(...)``, ``Q.from_(...)``."""

    @staticmethod
    def select(*items: Expression | SelectItem | str) -> QueryBuilder:
        return QueryBuilder().select(*items)

    @staticmethod
    def from_(video: str) -> QueryBuilder:
        return QueryBuilder().from_(video)
