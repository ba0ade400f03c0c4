"""Tests for the session-based query API: prepare once, execute many."""

import numpy as np
import pytest

import repro.api.session as session_module
from repro.api import Q, FCOUNT, PreparedQuery, QueryHints
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.results import AggregateResult, PlanExplanation
from repro.errors import FrameQLAnalysisError, QueryParameterError, UnknownVideoError
from repro.service.protocol import result_fingerprint

AGG_QUERY = (
    "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' "
    "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
)


@pytest.fixture(scope="module")
def aqp_engine(tiny_video, detector, fast_training_config):
    """An engine forced onto plain AQP (no labeled set is ever usable)."""
    engine = BlazeIt(
        detector=detector,
        config=BlazeItConfig(
            training=fast_training_config,
            min_training_positives=10**6,
            seed=123,
        ),
    )
    engine.register_video("tiny", test_video=tiny_video)
    engine.record_test_day("tiny")
    return engine


class TestPreparedQuery:
    def test_execute_many_parses_and_plans_exactly_once(self, aqp_engine, monkeypatch):
        """50 executions of one prepared aggregate: one parse, one plan."""
        parse_calls = []
        real_parse = session_module.parse
        monkeypatch.setattr(
            session_module,
            "parse",
            lambda text: parse_calls.append(text) or real_parse(text),
        )
        plan_calls = []
        real_plan = aqp_engine.optimizer.plan
        monkeypatch.setattr(
            aqp_engine.optimizer,
            "plan",
            lambda spec, **kw: plan_calls.append(spec) or real_plan(spec, **kw),
        )

        session = aqp_engine.session()
        prepared = session.prepare(AGG_QUERY)
        plan_before = prepared.plan
        results = prepared.execute_many([{} for _ in range(50)])

        assert len(results) == 50
        assert all(isinstance(r, AggregateResult) for r in results)
        assert len(parse_calls) == 1
        assert len(plan_calls) == 1
        assert prepared.plan is plan_before
        assert session.stats.parses == 1
        assert session.stats.plans == 1
        assert session.stats.executions == 50

    def test_execute_rebinds_runtime_parameters(self, aqp_engine):
        prepared = aqp_engine.session().prepare(AGG_QUERY)
        loose = prepared.execute(error_within=0.5)
        tight = prepared.execute(error_within=0.02)
        # A looser bound needs no more samples than a much tighter one.
        assert loose.samples_used <= tight.samples_used
        # The analyzed spec is restored after every execution.
        assert prepared.spec.error_tolerance == pytest.approx(0.1)

    def test_unknown_parameter_rejected(self, aqp_engine):
        prepared = aqp_engine.session().prepare(AGG_QUERY)
        with pytest.raises(QueryParameterError, match="limit"):
            prepared.execute(limit=5)
        # And the message lists what *is* bindable for the query class.
        with pytest.raises(QueryParameterError, match="error_within"):
            prepared.execute(nope=1)

    def test_invalid_parameter_values_rejected(self, aqp_engine, tiny_engine):
        prepared = aqp_engine.session().prepare(AGG_QUERY)
        with pytest.raises(QueryParameterError, match="positive"):
            prepared.execute(error_within=-0.5)
        with pytest.raises(QueryParameterError, match="number"):
            prepared.execute(error_within="lots")
        with pytest.raises(QueryParameterError, match="confidence"):
            prepared.execute(confidence=150)
        assert prepared.spec.error_tolerance == pytest.approx(0.1)
        scrub = tiny_engine.session().prepare(
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 2 LIMIT 3"
        )
        with pytest.raises(QueryParameterError, match=">= 1"):
            scrub.execute(limit=0)

    def test_confidence_percent_normalized_like_builder(self, aqp_engine):
        prepared = aqp_engine.session().prepare(AGG_QUERY)
        as_percent = prepared.execute(confidence=95, rng=np.random.default_rng(3))
        as_fraction = prepared.execute(confidence=0.95, rng=np.random.default_rng(3))
        assert as_percent.value == pytest.approx(as_fraction.value)

    @pytest.mark.parametrize(
        "name, value, clause",
        [
            ("error_within", 0.0, "ERROR WITHIN 0"),
            ("confidence", 100, "ERROR WITHIN 0.1 AT CONFIDENCE 100%"),
            ("confidence", 250, "ERROR WITHIN 0.1 AT CONFIDENCE 250"),
            ("fnr_within", 1.5, "FNR WITHIN 1.5"),
            ("fpr_within", 1.0, "FPR WITHIN 1"),
        ],
    )
    def test_accuracy_clauses_obey_one_rule_on_every_path(
        self, tiny_engine, name, value, clause
    ):
        """Query text, builder and re-binding reject an out-of-range
        accuracy clause with the same message, before anything is priced."""
        if name in ("fnr_within", "fpr_within"):
            base = valid = "SELECT * FROM tiny WHERE class = 'bus'"
            builder = Q.select("*").from_("tiny").where(cls="bus")
        else:
            base = "SELECT FCOUNT(*) FROM tiny WHERE class = 'car'"
            valid = f"{base} ERROR WITHIN 0.1"
            builder = Q.select(FCOUNT()).from_("tiny").where(cls="car")
        session = tiny_engine.session()
        with pytest.raises(FrameQLAnalysisError, match=name) as from_text:
            session.prepare(f"{base} {clause}")
        with pytest.raises(FrameQLAnalysisError) as from_builder:
            getattr(builder, name)(value)
        with pytest.raises(QueryParameterError) as from_binding:
            session.prepare(valid).execute(**{name: value})
        assert str(from_text.value) == str(from_builder.value)
        assert str(from_text.value) == str(from_binding.value)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_error_bound_rejected_on_every_path(self, tiny_engine, value):
        """An infinite stated bound is no bound: the builder and re-binding
        refuse it (query text cannot spell it: ``1e999`` is a syntax error)."""
        with pytest.raises(FrameQLAnalysisError, match="finite"):
            Q.select(FCOUNT()).from_("tiny").where(cls="car").error_within(value)
        prepared = tiny_engine.session().prepare(
            "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' ERROR WITHIN 0.1"
        )
        with pytest.raises(QueryParameterError, match="finite"):
            prepared.execute(error_within=value)
        assert prepared.spec.error_tolerance == pytest.approx(0.1)

    def test_exact_queries_bind_nothing(self, tiny_engine):
        prepared = tiny_engine.session().prepare("SELECT timestamp FROM tiny")
        with pytest.raises(QueryParameterError, match="none"):
            prepared.execute(limit=3)

    def test_scrubbing_limit_rebinds(self, tiny_engine):
        prepared = tiny_engine.session().prepare(
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 2 LIMIT 3"
        )
        small = prepared.execute(limit=1)
        assert len(small.frames) <= 1
        assert prepared.spec.limit == 3

    def test_explain_is_structured(self, tiny_engine):
        prepared = tiny_engine.session().prepare(AGG_QUERY)
        explanation = prepared.explain()
        assert isinstance(explanation, PlanExplanation)
        assert explanation.kind == "aggregate"
        assert "car" in explanation.plan_summary
        # The one-line str() form matches the historical engine.explain().
        assert str(explanation) == tiny_engine.explain(AGG_QUERY)
        assert explanation.estimated_detector_calls > 0
        assert "SpecializedInference" in explanation.operators.flatten()
        assert "estimated detector calls" in explanation.render()


class TestSessionRngStreams:
    def test_consecutive_executions_draw_different_samples(self, aqp_engine):
        session = aqp_engine.session()
        first = session.execute(AGG_QUERY)
        second = session.execute(AGG_QUERY)
        # Distinct RNG streams: the two AQP runs sample different frames.
        assert (first.value, first.samples_used) != (second.value, second.samples_used)

    def test_runs_reproducible_under_fixed_engine_seed(
        self, tiny_video, detector, fast_training_config
    ):
        def run():
            engine = BlazeIt(
                detector=detector,
                config=BlazeItConfig(
                    training=fast_training_config,
                    min_training_positives=10**6,
                    seed=77,
                ),
            )
            engine.register_video("tiny", test_video=tiny_video)
            engine.record_test_day("tiny")
            session = engine.session()
            return [session.execute(AGG_QUERY).value for _ in range(3)]

        first, second = run(), run()
        assert first == second
        assert len(set(first)) > 1  # ...while the draws within a run differ

    def test_explicit_rng_still_deterministic(self, aqp_engine):
        prepared = aqp_engine.session().prepare(AGG_QUERY)
        a = prepared.execute(rng=np.random.default_rng(5))
        b = prepared.execute(rng=np.random.default_rng(5))
        assert a.value == pytest.approx(b.value)
        assert a.samples_used == b.samples_used


class TestSessionCaching:
    def test_execute_reuses_prepared_queries(self, aqp_engine):
        session = aqp_engine.session()
        session.execute(AGG_QUERY)
        session.execute(AGG_QUERY)
        session.execute(AGG_QUERY)
        assert session.stats.parses == 1
        assert session.stats.plans == 1
        assert session.stats.prepared_cache_hits == 2

    def test_distinct_hints_get_distinct_plans(self, tiny_engine):
        session = tiny_engine.session()
        text = "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5"
        session.execute(text)
        session.execute(text, hints=QueryHints(selection_filter_classes=frozenset()))
        assert session.stats.plans == 2
        assert session.stats.prepared_cache_hits == 0

    def test_execution_context_shared_within_session(self, tiny_engine):
        session = tiny_engine.session()
        assert session._context_for("tiny") is session._context_for("tiny")
        # ...but the engine hands out a fresh context (and RNG stream) per call.
        assert tiny_engine.execution_context("tiny") is not tiny_engine.execution_context(
            "tiny"
        )

    def test_close_drops_caches(self, tiny_engine):
        with tiny_engine.session() as session:
            session.execute("SELECT timestamp FROM tiny")
            assert session._prepared
        assert not session._prepared
        assert not session._contexts


class TestOneContextPerExecution:
    def test_executions_never_write_the_cached_context(
        self, tmp_path, tiny_video, tiny_labeled_set, detector, engine_config
    ):
        """Sequential, traced, index-less and parallel executions each run on
        their own copy of the session's context: the cached one keeps its
        RNG and index view, and never gains a tracer or a prefetcher."""
        engine = BlazeIt(detector=detector, config=engine_config, index_dir=tmp_path)
        engine.register_video("tiny", test_video=tiny_video)
        engine.attach_labeled_set("tiny", tiny_labeled_set)
        engine.build_index("tiny", range_size=16, segment_frames=128)
        session = engine.session()
        cached = session._context_for("tiny")
        rng, rng_state = cached.rng, cached.rng.bit_generator.state
        index_view = cached.index_view
        assert index_view is not None
        no_index = QueryHints(use_index=False)

        session.execute(AGG_QUERY)
        session.execute(AGG_QUERY, trace=True)
        session.execute(AGG_QUERY, hints=no_index)
        parallel = session.stream(AGG_QUERY, hints=no_index, parallelism=2)
        assert parallel.workers == 2
        parallel.drain()

        assert session._context_for("tiny") is cached
        assert cached.rng is rng
        assert cached.rng.bit_generator.state == rng_state
        assert cached.index_view is index_view
        assert cached.tracer is None
        assert cached._prefetcher is None


class TestSessionEntryPointsShareTheCache:
    """``explain`` and ``execute_many`` answer from the session's prepared
    cache, so they describe and run the plan ``execute`` runs."""

    QUERY = (
        "SELECT timestamp FROM v GROUP BY timestamp "
        "HAVING SUM(class='car') >= 1 LIMIT 5"
    )

    def test_explain_describes_the_cached_plan(self, stats_free_engine, late_days):
        session = stats_free_engine.session()
        session.execute(self.QUERY, rng=np.random.default_rng(0))
        before = session.explain(self.QUERY)
        # Statistics arrive after the plan was cached: a fresh prepare()
        # would now choose differently, the cached plan is unchanged.
        stats_free_engine.attach_labeled_set("v", late_days[1])
        assert session.explain(self.QUERY).render() == before.render()
        session.execute_many(self.QUERY, [{}])
        assert session.stats.plans == 1
        assert session.stats.prepared_cache_hits == 3


class TestSessionInputs:
    def test_prepare_accepts_builder_and_text(self, tiny_engine):
        session = tiny_engine.session()
        from_text = session.prepare(AGG_QUERY)
        from_builder = session.prepare(
            Q.select(FCOUNT()).from_("tiny").where(cls="car")
            .error_within(0.1).confidence(0.95)
        )
        assert from_builder.spec == from_text.spec

    def test_session_default_video_fills_missing_from(self, tiny_engine):
        session = tiny_engine.session(video="tiny")
        prepared = session.prepare(Q.select(FCOUNT()).where(cls="car").error_within(0.1))
        assert prepared.spec.video == "tiny"
        result = prepared.execute()
        assert isinstance(result, AggregateResult)

    def test_execute_accepts_builder_without_from(self, tiny_engine):
        session = tiny_engine.session(video="tiny")
        builder = Q.select(FCOUNT()).where(cls="car").error_within(0.1)
        result = session.execute(builder)
        assert isinstance(result, AggregateResult)
        # The cached plan is reused on the second execution.
        session.execute(builder)
        assert session.stats.prepared_cache_hits == 1

    def test_execute_compiles_builder_once_per_call(self, tiny_engine, monkeypatch):
        session = tiny_engine.session(video="tiny")
        builder = Q.select(FCOUNT()).where(cls="car").error_within(0.1).from_("tiny")
        builds = []
        real_build = type(builder).build
        monkeypatch.setattr(
            type(builder), "build", lambda b: builds.append(1) or real_build(b)
        )
        session.execute(builder)
        session.execute(builder)
        assert len(builds) == 2  # once per call (cache key), never twice per call

    @pytest.mark.parametrize(
        "query", ["SELECT * FROM nope", f"{AGG_QUERY.replace('tiny', 'nope')}"]
    )
    def test_prepare_of_an_unregistered_video_raises(self, tiny_engine, query):
        session = tiny_engine.session()
        with pytest.raises(UnknownVideoError, match="'nope' is not registered"):
            session.prepare(query)
        with pytest.raises(UnknownVideoError):
            session.execute(query)
        assert session.stats.plans == 0

    def test_prepare_returns_prepared_query(self, tiny_engine):
        prepared = tiny_engine.session().prepare("SELECT timestamp FROM tiny")
        assert isinstance(prepared, PreparedQuery)
        assert "PreparedQuery" in repr(prepared)


class TestCompatibilityWrapper:
    def test_one_shot_query_unchanged(self, tiny_engine):
        result = tiny_engine.query(AGG_QUERY)
        assert isinstance(result, AggregateResult)

    def test_engine_explain_still_a_string(self, tiny_engine):
        explanation = tiny_engine.explain(AGG_QUERY)
        assert isinstance(explanation, str)
        assert "aggregate" in explanation

    def test_engine_explain_query_structured(self, tiny_engine):
        explanation = tiny_engine.explain_query(AGG_QUERY)
        assert isinstance(explanation, PlanExplanation)
        assert explanation.kind == "aggregate"


class TestExplainDrawsNothing:
    """Explaining is an observation (invariant I1): it builds no execution
    context and opens no session, so it draws nothing from the engine's seed
    sequence, and no later session's results move."""

    @pytest.fixture()
    def fresh_engine(self, tiny_video, detector, fast_training_config):
        def build():
            engine = BlazeIt(
                detector=detector,
                config=BlazeItConfig(
                    training=fast_training_config, min_training_positives=10**6, seed=5
                ),
            )
            engine.register_video("tiny", test_video=tiny_video)
            return engine

        return build

    def test_an_explain_in_one_session_leaves_another_unchanged(self, fresh_engine):
        fingerprints = []
        for explained in (False, True):
            engine = fresh_engine()
            first = engine.session()
            prepared = first.prepare(AGG_QUERY)
            if explained:
                prepared.explain()
            second = engine.session()
            fingerprints.append(
                (
                    result_fingerprint(second.execute(AGG_QUERY)),
                    result_fingerprint(prepared.execute()),
                )
            )
        assert fingerprints[0] == fingerprints[1]

    def test_engine_explain_leaves_the_next_session_unchanged(self, fresh_engine):
        fingerprints = []
        for explained in (False, True):
            engine = fresh_engine()
            if explained:
                assert "aggregate" in engine.explain(AGG_QUERY)
                assert engine.explain_query(AGG_QUERY).kind == "aggregate"
            fingerprints.append(result_fingerprint(engine.session().execute(AGG_QUERY)))
        assert fingerprints[0] == fingerprints[1]

    def test_engine_explain_of_an_unregistered_video_raises(self, fresh_engine):
        engine = fresh_engine()
        with pytest.raises(UnknownVideoError, match="'nope' is not registered"):
            engine.explain(AGG_QUERY.replace("tiny", "nope"))
        with pytest.raises(UnknownVideoError):
            engine.explain_query("SELECT * FROM nope")
