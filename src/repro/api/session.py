"""Session-based query API: prepare once, execute many.

A :class:`QuerySession` is the DB-style client surface of the engine.  It
owns three things a one-shot ``BlazeIt.query()`` call cannot amortize:

* a cache of :class:`~repro.core.context.ExecutionContext` objects (one per
  video), so per-video state (detector, labeled set, index view) is
  resolved once per session rather than once per query — every execution
  runs on its own shallow copy, and the cached context is never written to;
* a cache of :class:`PreparedQuery` objects keyed by query text and hints,
  so repeated ``session.execute`` calls parse, analyze and plan exactly once;
* a per-session :class:`numpy.random.SeedSequence` from which every execution
  draws a fresh, independent RNG stream — repeated approximate queries see
  different samples, while a fixed engine seed keeps whole runs reproducible.

Typical use::

    with engine.session() as session:
        prepared = session.prepare(
            Q.select(FCOUNT()).from_("taipei").where(cls="car").error_within(0.1)
        )
        results = prepared.execute_many([{}, {"error_within": 0.05}])
        print(prepared.explain().render())
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.builder import QueryBuilder
from repro.api.hints import QueryHints, StopConditions, require_hints
from repro.core.events import (
    DEFAULT_BATCH_SIZE,
    Completed,
    ExecutionControl,
    ExecutionEvent,
    ExecutionStream,
    ShardProgress,
)
from repro.core.results import PlanExplanation, QueryResult
from repro.metrics.runtime import ExecutionLedger
from repro.obs.metrics import record_execution_ledger
from repro.obs.profile import ExecutionProfile, build_profile
from repro.obs.trace import Tracer, maybe_span
from repro.errors import (
    ConfigurationError,
    FrameQLAnalysisError,
    QueryParameterError,
    require_positive_int,
)
from repro.frameql.analyzer import (
    AggregateQuerySpec,
    QuerySpec,
    ScrubbingQuerySpec,
    SelectionQuerySpec,
    analyze,
    confidence_level,
    error_rate,
    positive_number,
)
from repro.frameql.ast import Query
from repro.frameql.parser import parse
from repro.stopwatch import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.context import ExecutionContext
    from repro.core.engine import BlazeIt
    from repro.optimizer.base import PhysicalPlan
    from repro.optimizer.cost import ParallelismDecision, PlanDecision


def _int_at_least(minimum: int):
    def validate(name: str, value: Any) -> int:
        try:
            result = int(value)
        except (TypeError, ValueError):
            raise QueryParameterError(
                f"{name} must be an integer, got {value!r}"
            ) from None
        if result < minimum:
            raise QueryParameterError(f"{name} must be >= {minimum}, got {value!r}")
        return result

    return validate


#: Runtime parameters each query class can re-bind without re-planning,
#: mapped to (spec attribute, value validator).  The accuracy validators are
#: the analyzer's own rules and the integer ones mirror the plan
#: constructors, so rebinding cannot smuggle in values planning would have
#: rejected.
_BINDABLE_PARAMS: dict[type, dict[str, tuple[str, Any]]] = {
    AggregateQuerySpec: {
        "error_within": ("error_tolerance", positive_number),
        "confidence": ("confidence", confidence_level),
    },
    ScrubbingQuerySpec: {
        "limit": ("limit", _int_at_least(1)),
        "gap": ("gap", _int_at_least(0)),
    },
    SelectionQuerySpec: {
        "fnr_within": ("fnr_within", error_rate),
        "fpr_within": ("fpr_within", error_rate),
    },
}


@dataclass
class SessionStats:
    """Counters exposing how much work the session has amortized."""

    parses: int = 0
    plans: int = 0
    executions: int = 0
    streams: int = 0
    prepared_cache_hits: int = 0


class PreparedQuery:
    """A query that has been parsed, analyzed and planned exactly once.

    Holds the analyzed :class:`~repro.frameql.analyzer.QuerySpec` and the
    chosen physical plan; every :meth:`execute` call reuses both, paying only
    execution cost.  Runtime parameters that do not change the plan structure
    (``error_within``/``confidence`` for aggregates, ``limit``/``gap`` for
    scrubbing, ``fnr_within``/``fpr_within`` for selection) can be re-bound
    per execution.
    """

    def __init__(
        self,
        session: QuerySession,
        text: str,
        spec: QuerySpec,
        plan: PhysicalPlan,
        hints: QueryHints,
        parse_seconds: float = 0.0,
        optimize_seconds: float = 0.0,
    ) -> None:
        self._session = session
        self.text = text
        self.spec = spec
        self.plan = plan
        self.hints = hints
        #: Prepare-time wall durations, replayed as synthetic ``parse`` /
        #: ``optimize`` spans into every traced execution (display only).
        self._parse_seconds = parse_seconds
        self._optimize_seconds = optimize_seconds

    def __repr__(self) -> str:
        return f"PreparedQuery({self.text!r}, plan={self.plan.describe()})"

    # -- parameter binding ---------------------------------------------------------

    def _validated(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Runtime parameters as spec attributes, each checked by its rule."""
        allowed = _BINDABLE_PARAMS.get(type(self.spec), {})
        unknown = set(params) - set(allowed)
        if unknown:
            raise QueryParameterError(
                f"{self.spec.kind.value} queries cannot bind "
                f"{sorted(unknown)}; bindable parameters: {sorted(allowed) or 'none'}"
            )
        try:
            return {
                allowed[name][0]: allowed[name][1](name, value)
                for name, value in params.items()
            }
        except FrameQLAnalysisError as exc:
            raise QueryParameterError(str(exc)) from None

    @contextlib.contextmanager
    def _bound(self, validated: Mapping[str, Any]):
        """Temporarily re-bind validated runtime parameters onto the spec."""
        saved = {attribute: getattr(self.spec, attribute) for attribute in validated}
        for attribute, value in validated.items():
            setattr(self.spec, attribute, value)
        try:
            yield
        finally:
            for attribute, value in saved.items():
                setattr(self.spec, attribute, value)

    # -- execution ----------------------------------------------------------------

    def stream(
        self,
        rng: np.random.Generator | None = None,
        stop: StopConditions | None = None,
        batch_size: int | None = None,
        parallelism: int | None = None,
        backend: str | None = None,
        trace: bool | None = None,
        analyze: bool = False,
        **params: Any,
    ) -> ExecutionStream:
        """Run the prepared plan as a lazy stream of typed execution events.

        The returned :class:`~repro.core.events.ExecutionStream` yields
        ``Progress`` / ``EstimateUpdate`` / ``ScrubbingHit`` /
        ``SelectionWindow`` events as the plan works, terminated by a single
        ``Completed`` carrying the full :class:`QueryResult`.  ``stop``
        attaches :class:`~repro.api.hints.StopConditions` for this execution
        (falling back to the hints' default conditions), ``batch_size``
        overrides the pipeline chunk size (falling back to the hints'
        ``batch_size``, then the engine default), ``stream.cancel()``
        requests cooperative cancellation, and runtime parameters re-bind
        exactly as with :meth:`execute`.

        ``parallelism`` routes execution through the parallel sharded engine
        (falling back to the hints' ``parallelism``, then the engine
        configuration): the video is partitioned into shards, one prefetch
        worker per shard, with :class:`~repro.core.events.ShardProgress`
        events interleaved into the stream.  ``backend`` picks the worker
        substrate (``"threads"`` or ``"processes"``, falling back to the
        hints' ``backend``, then the optimizer's choice or threads).  Results
        are bit-for-bit identical at every parallelism and backend under a
        fixed RNG stream.

        ``trace`` enables span tracing for this execution (``None`` follows
        the hints' ``trace``, which is off unless set); ``analyze=True``
        forces tracing and is the streaming form of EXPLAIN ANALYZE — the
        terminal ``Completed`` result carries an
        :class:`~repro.obs.profile.ExecutionProfile`.  Tracing never changes
        results: span wall times are display-only.

        The plan does no work until the stream is iterated.  Every stream
        runs on its own copy of the session's context, but interleaving two
        live streams of the same prepared query that re-bind parameters is
        not supported: they share the analyzed spec the parameters are bound
        onto.
        """
        self._session.stats.streams += 1
        return self._open_stream(
            rng, stop, batch_size, params, parallelism, backend, trace, analyze
        )

    @property
    def _decision(self) -> PlanDecision:
        decision = self.plan.decision
        assert decision is not None  # prepare() plans through the optimizer
        return decision

    def _routed(
        self, batch_size: int | None = None, backend: str | None = None
    ) -> ParallelismDecision:
        """The routed-parallelism verdict: what ``explain()`` shows, and what
        an execution without an explicit ``parallelism=`` runs.

        Routed (hints / engine config) parallelism is a *default*, not an
        order: the verdict is a function of the plan's decision record, so
        it is priced on the statistics the plan was chosen with.
        """
        from repro.optimizer.cost import routed_parallelism

        engine = self._session.engine
        requested = (
            self.hints.parallelism
            if self.hints.parallelism is not None
            else engine.config.parallelism
        )
        return routed_parallelism(
            self._decision,
            requested=requested,
            batch_size=batch_size or self.hints.batch_size or DEFAULT_BATCH_SIZE,
            backend_constraint=backend if backend is not None else self.hints.backend,
            detector=self._session._context_for(self.spec.video).detector,
        )

    def _tracing_enabled(self, trace: bool | None, analyze: bool) -> bool:
        """Per-call ``analyze`` wins, then ``trace``, then the hints; off otherwise."""
        if analyze:
            return True
        if trace is not None:
            if not isinstance(trace, bool):
                raise ConfigurationError(
                    f"trace must be True, False or None, got {trace!r}"
                )
            return trace
        return bool(self.hints.trace)

    def _open_stream(
        self,
        rng: np.random.Generator | None,
        stop: StopConditions | None,
        batch_size: int | None,
        params: Mapping[str, Any],
        parallelism: int | None = None,
        backend: str | None = None,
        trace: bool | None = None,
        analyze: bool = False,
    ) -> ExecutionStream:
        """Set up one execution and keep its accounting: the only place that
        does either.

        The execution runs on its own shallow copy of the session's cached
        context, carrying its RNG stream, its tracer and — under
        ``use_index=False`` — no index view; the cached context is never
        written to.  Runtime parameters are checked first, so a rejected one
        draws nothing; the RNG stream is drawn now, so spawn order follows
        stream creation order.
        """
        bound = self._validated(params)
        cached = self._session._context_for(self.spec.video)
        if rng is None:
            seed_sequence: np.random.SeedSequence | None = (
                self._session._next_seed_sequence()
            )
            rng = np.random.default_rng(seed_sequence)
        else:
            seed_sequence = None
        # The trace id derives from the execution's seed-sequence spawn path,
        # never from wall-clock time.
        tracer = (
            Tracer.from_seed_sequence(seed_sequence)
            if self._tracing_enabled(trace, analyze)
            else None
        )
        context = dataclasses.replace(
            cached,
            rng=rng,
            tracer=tracer,
            # Per-query opt-out: run index-less.  Every other piece of
            # per-video state is shared, so results are identical — only the
            # detection source changes.
            index_view=None if self.hints.use_index is False else cached.index_view,
        )
        if batch_size is None:
            batch_size = self.hints.batch_size or DEFAULT_BATCH_SIZE
        control = ExecutionControl(
            stop=stop if stop is not None else self.hints.stop_conditions,
            batch_size=batch_size,
        )
        if parallelism is not None:
            # An explicit per-call worker count is honoured as given.
            workers = require_positive_int("parallelism", parallelism)
            exec_backend = backend or self.hints.backend or "threads"
        else:
            verdict = self._routed(batch_size, backend)
            workers, exec_backend = verdict.workers, verdict.backend

        def events() -> Iterator[ExecutionEvent]:
            from repro.parallel.plan import parallel_events

            # One clock per execution, started on the first pull, so executor
            # construction and worker spawn count on every backend.
            watch = Stopwatch()
            self._session.stats.executions += 1
            with self._bound(bound):
                if tracer is not None:
                    # Replay the prepare-time costs into this trace: parse
                    # and optimize ran once, at prepare(), for every
                    # execution of this handle.
                    tracer.synthetic_span("parse", self._parse_seconds)
                    tracer.synthetic_span("optimize", self._optimize_seconds)
                if workers > 1:
                    plan_events = parallel_events(
                        self.plan,
                        context,
                        control,
                        parallelism=workers,
                        stats=self._decision.stats,
                        backend=exec_backend,
                    )
                else:
                    plan_events = self.plan.run(context, control)
                completed: Completed | None = None
                emitted = 0
                try:
                    with maybe_span(
                        tracer,
                        "execute",
                        parallelism=workers,
                        backend=exec_backend if workers > 1 else "sequential",
                    ):
                        for event in plan_events:
                            if isinstance(event, Completed):
                                # Hold the terminal event until the execute
                                # span has closed, so the profile sees the
                                # finished span tree.
                                completed = event
                                break
                            if not isinstance(event, ShardProgress):
                                emitted += 1
                            yield event
                    if completed is not None:
                        result = completed.result
                        result.stop_reason = completed.stop_reason
                        if isinstance(result.ledger, ExecutionLedger):
                            result.ledger.finalize_stream_accounting(
                                events_emitted=emitted + 1,
                                batches_emitted=emitted,
                                wall_seconds=watch.elapsed(),
                            )
                        record_execution_ledger(result.kind, result.ledger)
                        if tracer is not None:
                            result.profile = build_profile(
                                result.kind,
                                self.plan.describe(),
                                self._decision.operators,
                                tracer,
                            )
                        yield completed
                finally:
                    # Propagate close() promptly to the plan generator — and,
                    # under parallel execution, to the in-flight shard
                    # workers, which are joined before close returns.
                    closer = getattr(plan_events, "close", None)
                    if closer is not None:
                        closer()

        return ExecutionStream(events(), control, workers)

    def execute(
        self,
        rng: np.random.Generator | None = None,
        stop: StopConditions | None = None,
        parallelism: int | None = None,
        backend: str | None = None,
        trace: bool | None = None,
        analyze: bool = False,
        **params: Any,
    ) -> QueryResult:
        """Run the prepared plan to completion by draining its event stream.

        Blocking execution is *defined* as ``stream(...).drain()``, so the
        result is identical to what iterating the stream would have produced.
        Each call draws a fresh RNG stream from the session (unless ``rng``
        is given), so repeated approximate executions sample independently.

        ``execute(analyze=True)`` is EXPLAIN ANALYZE: the execution is traced
        and the result's ``profile`` carries per-operator actual vs estimated
        detector calls and wall time (``result.profile.render()``).  The
        result values themselves are byte-identical to an untraced run.
        """
        return self._open_stream(
            rng, stop, None, params, parallelism, backend, trace, analyze
        ).drain()

    def execute_many(
        self, param_sets: Iterable[Mapping[str, Any]]
    ) -> list[QueryResult]:
        """Run the plan once per parameter set, reusing the plan and context.

        The single detector/labeled-set/feature state in the session's
        execution context is shared across all runs; only the RNG stream and
        the bound parameters vary.
        """
        return [self.execute(**dict(params)) for params in param_sets]

    # -- introspection -------------------------------------------------------------

    def explain(
        self, analyze: bool = False, **params: Any
    ) -> PlanExplanation | ExecutionProfile:
        """Structured description of the plan this query will run: the
        decision the optimizer recorded on it at ``prepare()``.

        ``explain(analyze=True)`` actually runs the query once (tracing
        enabled, fresh RNG stream) and returns its
        :class:`~repro.obs.profile.ExecutionProfile` — per-operator actual vs
        estimated detector calls and wall time.  Both return types render
        with ``.render()``.
        """
        if analyze:
            result = self.execute(analyze=True, **params)
            assert result.profile is not None  # analyze=True always traces
            return result.profile
        return self._decision.explanation(self._routed())


class QuerySession:
    """A conversation with the engine: shared context, plans and RNG streams.

    Obtained from :meth:`repro.core.engine.BlazeIt.session`; usable as a
    context manager (``with engine.session() as s:``), though no cleanup is
    required — closing merely drops the caches.
    """

    def __init__(
        self,
        engine: BlazeIt,
        video: str | None = None,
        hints: QueryHints | None = None,
    ) -> None:
        self.engine = engine
        self.video = video
        self.hints = hints or QueryHints()
        self.stats = SessionStats()
        self._seed_sequence = engine._spawn_seed_sequence()
        self._contexts: dict[str, ExecutionContext] = {}
        self._prepared: dict[tuple[str, QueryHints], PreparedQuery] = {}

    def __enter__(self) -> QuerySession:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Drop the session's context and prepared-query caches."""
        self._contexts.clear()
        self._prepared.clear()

    # -- internal plumbing ---------------------------------------------------------

    def _next_seed_sequence(self) -> np.random.SeedSequence:
        """A fresh child seed sequence for one query execution.

        The parallel engine spawns one grandchild per shard from it, keyed by
        shard id, so shard-local randomness is reproducible and independent.
        """
        return self._seed_sequence.spawn(1)[0]

    def _context_for(self, video: str) -> ExecutionContext:
        """The cached execution context for a video (built on first use)."""
        context = self._contexts.get(video)
        if context is None:
            context = self.engine.execution_context(video)
            self._contexts[video] = context
        return context

    def _to_ast(self, query: str | QueryBuilder | Query) -> tuple[str, Query]:
        """Normalize text / builder / AST input to ``(cache_key, ast)``."""
        if isinstance(query, QueryBuilder):
            if self.video and not query._video:
                query = query.from_(self.video)
            ast = query.build()
            return str(ast), ast
        if isinstance(query, Query):
            return str(query), query
        self.stats.parses += 1
        return query, parse(query)

    # -- public API ----------------------------------------------------------------

    def prepare(
        self, query: str | QueryBuilder | Query, hints: QueryHints | None = None
    ) -> PreparedQuery:
        """Parse, analyze and plan a query once; returns the reusable handle.

        ``query`` may be FrameQL text, a fluent :class:`QueryBuilder`, or an
        already-built AST.  Per-query ``hints`` override the session's
        default hints.
        """
        watch = Stopwatch()
        text, ast = self._to_ast(query)
        effective_hints = require_hints(hints) if hints is not None else self.hints
        parse_seconds = watch.elapsed()
        spec = analyze(ast)
        plan = self.engine.optimizer.plan(spec, hints=effective_hints)
        optimize_seconds = watch.elapsed() - parse_seconds
        self.stats.plans += 1
        return PreparedQuery(
            self,
            text,
            spec,
            plan,
            effective_hints,
            parse_seconds=parse_seconds,
            optimize_seconds=optimize_seconds,
        )

    def execute(
        self,
        query: str | QueryBuilder | Query,
        hints: QueryHints | None = None,
        rng: np.random.Generator | None = None,
        stop: StopConditions | None = None,
        trace: bool | None = None,
        analyze: bool = False,
        **params: Any,
    ) -> QueryResult:
        """Prepare (with caching) and execute a query in one call.

        Repeated calls with the same query text and hints reuse the cached
        :class:`PreparedQuery` — one parse and one plan for the whole
        session — while still drawing a fresh RNG stream per execution.
        """
        return self._prepared_for(query, hints).execute(
            rng=rng, stop=stop, trace=trace, analyze=analyze, **params
        )

    def stream(
        self,
        query: str | QueryBuilder | Query,
        hints: QueryHints | None = None,
        rng: np.random.Generator | None = None,
        stop: StopConditions | None = None,
        batch_size: int | None = None,
        parallelism: int | None = None,
        backend: str | None = None,
        trace: bool | None = None,
        analyze: bool = False,
        **params: Any,
    ) -> ExecutionStream:
        """Prepare (with caching) and stream a query's execution events.

        The streaming analogue of :meth:`execute`: returns a lazy
        :class:`~repro.core.events.ExecutionStream` of typed events
        (``Progress``, ``EstimateUpdate``, ``ScrubbingHit``,
        ``SelectionWindow``, terminal ``Completed``), supporting early
        termination via ``stop=StopConditions(...)``, cooperative
        cancellation via ``stream.cancel()``, and parallel sharded execution
        via ``parallelism=`` (falling back to the hints, then the engine
        configuration).
        """
        return self._prepared_for(query, hints).stream(
            rng=rng, stop=stop, batch_size=batch_size, parallelism=parallelism,
            backend=backend, trace=trace, analyze=analyze, **params
        )

    def _prepared_for(
        self, query: str | QueryBuilder | Query, hints: QueryHints | None
    ) -> PreparedQuery:
        """The cached prepared query for (query, hints), preparing on a miss."""
        source: str | Query
        if isinstance(query, str):
            key_text = source = query
        else:
            # Compile builders exactly once: the AST serves both as the cache
            # key and, on a miss, as the prepare() input.
            key_text, source = self._to_ast(query)
        key = (key_text, hints if hints is not None else self.hints)
        prepared = self._prepared.get(key)
        if prepared is None:
            prepared = self.prepare(source, hints=hints)
            self._prepared[key] = prepared
        else:
            self.stats.prepared_cache_hits += 1
        return prepared

    def execute_many(
        self,
        query: str | QueryBuilder | Query,
        param_sets: Iterable[Mapping[str, Any]],
        hints: QueryHints | None = None,
    ) -> list[QueryResult]:
        """Prepare (with caching) and execute a query for every parameter set."""
        return self._prepared_for(query, hints).execute_many(param_sets)

    def explain(
        self, query: str | QueryBuilder | Query, hints: QueryHints | None = None
    ) -> PlanExplanation:
        """The structured explanation of the plan :meth:`execute` runs for a
        query (the cached prepared plan), without executing it."""
        return self._prepared_for(query, hints).explain()
