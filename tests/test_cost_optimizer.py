"""Tests for the cost-based optimizer: enumeration, cost model, snapshots,
the estimate-bounds-actuals invariant, and the chosen-vs-forced property."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import QueryHints
from repro.catalog.statistics import StatisticsCatalog
from repro.core.config import AggregateMethod
from repro.core.engine import BlazeIt
from repro.detection.simulated import SimulatedDetector
from repro.optimizer import cost as cost_module
from repro.optimizer.aggregates import AggregateQueryPlan, sampling_calls_estimate
from repro.optimizer.base import CostEstimate
from repro.optimizer.cost import CostBasedOptimizer, ParallelismModel
from repro.optimizer.scrubbing import ScrubbingQueryPlan
from repro.optimizer.selection import SelectionQueryPlan
from repro.udf.registry import default_udf_registry
from repro.video.synthetic import SyntheticVideo
from conftest import make_video_spec

AGG_QUERY = "SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1"
SCRUB_QUERY = (
    "SELECT timestamp FROM tiny GROUP BY timestamp "
    "HAVING SUM(class='car') >= 2 LIMIT 3"
)
SELECT_QUERY = "SELECT * FROM tiny WHERE class='bus' AND redness(content) >= 17.5"
EXACT_QUERY = "SELECT * FROM tiny"

#: Forced alternatives per query class that honour the query's accuracy
#: contract.  ``specialized_rewrite`` is deliberately absent: forcing it
#: bypasses Algorithm 1's accuracy gate, so it may do fewer detector calls
#: than the chosen plan precisely when it would violate the error bound.
CONTRACT_ALTERNATIVES = {
    AGG_QUERY: ["exact", "naive_aqp", "control_variates"],
    SCRUB_QUERY: ["exhaustive"],
    SELECT_QUERY: ["exhaustive"],
    EXACT_QUERY: ["exhaustive"],
}


def _names(candidates):
    return [candidate.name for candidate in candidates]


class TestPlanEnumeration:
    def test_aggregate_candidates(self, tiny_engine):
        spec = tiny_engine.analyze(AGG_QUERY)
        candidates = tiny_engine.optimizer.candidates(spec)
        assert _names(candidates) == [
            "auto",
            "exact",
            "naive_aqp",
            "specialized_rewrite",
            "control_variates",
        ]
        by_name = {candidate.name: candidate for candidate in candidates}
        assert by_name["exact"].cost.detector_calls == 400
        assert by_name["specialized_rewrite"].cost.detector_calls == 0
        assert by_name["specialized_rewrite"].cost.training_seconds > 0
        # The adaptive default is priced at the best of its runtime branches,
        # so it can never lose the tie against the strategies it subsumes.
        assert by_name["auto"].cost.total_seconds <= min(
            by_name["specialized_rewrite"].cost.total_seconds,
            by_name["control_variates"].cost.total_seconds,
        )

    def test_aggregate_without_tolerance_only_exact(self, tiny_engine):
        spec = tiny_engine.analyze("SELECT FCOUNT(*) FROM tiny WHERE class='car'")
        assert _names(tiny_engine.optimizer.candidates(spec)) == ["exact"]

    def test_aggregate_unknown_class_not_specializable(self, tiny_engine):
        spec = tiny_engine.analyze(
            "SELECT FCOUNT(*) FROM tiny WHERE class='bear' ERROR WITHIN 0.1"
        )
        assert _names(tiny_engine.optimizer.candidates(spec)) == [
            "auto",
            "exact",
            "naive_aqp",
        ]

    def test_scrubbing_and_selection_candidates(self, tiny_engine):
        scrub = tiny_engine.analyze(SCRUB_QUERY)
        assert _names(tiny_engine.optimizer.candidates(scrub)) == [
            "importance",
            "exhaustive",
        ]
        select = tiny_engine.analyze(SELECT_QUERY)
        assert _names(tiny_engine.optimizer.candidates(select)) == [
            "filtered",
            "exhaustive",
        ]
        exact = tiny_engine.analyze(EXACT_QUERY)
        assert _names(tiny_engine.optimizer.candidates(exact)) == ["exhaustive"]

    def test_default_choice_matches_rule_based_mapping(self, tiny_engine):
        """The cost-chosen default is the same plan the rules produced."""
        for text, plan_type in [
            (AGG_QUERY, AggregateQueryPlan),
            (SCRUB_QUERY, ScrubbingQueryPlan),
            (SELECT_QUERY, SelectionQueryPlan),
        ]:
            spec = tiny_engine.analyze(text)
            plan = tiny_engine.optimizer.plan(spec)
            assert isinstance(plan, plan_type)
        agg = tiny_engine.optimizer.plan(tiny_engine.analyze(AGG_QUERY))
        assert agg.method is None  # adaptive, not a forced variant
        scrub = tiny_engine.optimizer.plan(tiny_engine.analyze(SCRUB_QUERY))
        assert scrub.strategy is None

    def test_without_stats_the_query_class_default_is_planned(self):
        optimizer = CostBasedOptimizer(default_udf_registry())
        spec_text = "SELECT FCOUNT(*) FROM nowhere WHERE class='car' ERROR WITHIN 0.1"
        from repro.frameql.analyzer import analyze
        from repro.frameql.parser import parse

        plan = optimizer.plan(analyze(parse(spec_text)))
        assert isinstance(plan, AggregateQueryPlan)
        assert plan.method is None

    def test_forced_aggregate_variants_execute(self, tiny_engine):
        session = tiny_engine.session()
        for name, method in [
            ("exact", "exact"),
            ("naive_aqp", "naive_aqp"),
            ("specialized_rewrite", "specialized_rewrite"),
            ("control_variates", "control_variates"),
        ]:
            result = session.execute(
                AGG_QUERY,
                hints=QueryHints(force_plan=name),
                rng=np.random.default_rng(4),
            )
            assert result.method == method

    def test_forced_method_overrides_config(self, tiny_engine):
        spec = tiny_engine.analyze(AGG_QUERY)
        plan = tiny_engine.optimizer.plan(
            spec, hints=QueryHints(force_plan="exact")
        )
        assert plan.method is AggregateMethod.EXACT

    def test_forced_method_baked_into_the_plan(self, tiny_engine):
        """A forced method reaches the plan, so its detector estimate bounds
        what execution will actually do."""
        session = tiny_engine.session()
        prepared = session.prepare(AGG_QUERY, hints=QueryHints(force_plan="exact"))
        assert prepared.plan.method is AggregateMethod.EXACT
        stats = tiny_engine.catalog.get("tiny")
        estimate = prepared.plan.estimate_detector_calls(400, stats)
        result = prepared.execute(rng=np.random.default_rng(2))
        assert result.method == "exact"
        assert result.execution_ledger.detector_calls <= estimate

    def test_scrubbing_ranking_priced_cheaper_than_sequential(self, tiny_engine):
        """The importance candidate's verification reflects the ranking's
        concentration of positives; it never prices above the sequential scan."""
        spec = tiny_engine.analyze(SCRUB_QUERY)
        by_name = {
            candidate.name: candidate
            for candidate in tiny_engine.optimizer.candidates(spec)
        }
        assert (
            by_name["importance"].cost.detector_calls
            <= by_name["exhaustive"].cost.detector_calls
        )

    def test_candidates_without_statistics_use_store_frame_count(
        self, tiny_video, detector, engine_config
    ):
        """Statistics-less explains still show real scan magnitudes."""
        from repro.core.engine import BlazeIt

        engine = BlazeIt(detector=detector, config=engine_config)
        engine.register_video("bare", test_video=tiny_video)
        explanation = engine.session().explain("SELECT * FROM bare")
        (candidate,) = explanation.candidates
        assert candidate.detector_calls == tiny_video.num_frames
        assert candidate.total_seconds > 0


class TestSamplingEstimate:
    def test_zero_variance_converges_at_epsilon_net(self):
        assert sampling_calls_estimate(1000, 0.0, 0.1, 0.95, 2.0) == 20

    def test_zero_variance_estimate_covers_the_two_frame_first_round(self):
        # K / epsilon < 1: the loop still draws two frames, and so does the bound.
        assert sampling_calls_estimate(1000, 0.0, 5.0, 0.95, 4.0) == 2
        assert sampling_calls_estimate(1, 0.0, 5.0, 0.95, 4.0) == 1

    def test_never_exceeds_population(self):
        assert sampling_calls_estimate(400, 50.0, 0.01, 0.99, 10.0) == 400

    def test_grows_with_variance_and_confidence(self):
        low = sampling_calls_estimate(100_000, 0.5, 0.1, 0.95, 2.0)
        high_var = sampling_calls_estimate(100_000, 1.5, 0.1, 0.95, 2.0)
        high_conf = sampling_calls_estimate(100_000, 0.5, 0.1, 0.999, 2.0)
        assert low < high_var
        assert low < high_conf


QUERY_BY_KIND = {
    "aggregate": AGG_QUERY,
    "scrubbing": SCRUB_QUERY,
    "selection": SELECT_QUERY,
    "exact": EXACT_QUERY,
}


class TestOnePrice:
    """A candidate's cost is its plan's ``estimate_cost``: the optimizer
    enumerates and chooses, and prices nothing itself."""

    @pytest.fixture(scope="class")
    def engines(
        self,
        tmp_path_factory,
        tiny_video,
        tiny_train_video,
        tiny_heldout_video,
        detector,
        engine_config,
    ):
        """``{(with statistics, index-served): engine}`` over the tiny video."""
        built = {}
        for with_stats in (True, False):
            for indexed in (True, False):
                engine = BlazeIt(
                    detector=detector,
                    config=engine_config,
                    index_dir=tmp_path_factory.mktemp("price") if indexed else None,
                )
                days = (
                    {"train_video": tiny_train_video, "heldout_video": tiny_heldout_video}
                    if with_stats
                    else {}
                )
                engine.register_video("tiny", test_video=tiny_video, **days)
                if indexed:
                    engine.build_index("tiny")
                built[with_stats, indexed] = engine
        return built

    @pytest.mark.parametrize("indexed", [False, True], ids=["live", "index-served"])
    @pytest.mark.parametrize("with_stats", [True, False], ids=["stats", "no-stats"])
    @pytest.mark.parametrize("kind", sorted(QUERY_BY_KIND))
    def test_every_candidate_costs_its_plans_estimate(
        self, engines, kind, with_stats, indexed
    ):
        engine = engines[with_stats, indexed]
        stats = engine.catalog.get("tiny")
        assert (stats is not None) == with_stats
        spec = engine.analyze(QUERY_BY_KIND[kind])
        names = _names(engine.optimizer.candidates(spec))
        for force in [None, *names]:
            hints = QueryHints(force_plan=force)
            decision = engine.optimizer.plan(spec, hints).decision
            assert _names(decision.explained.candidates) == names
            if force is not None:
                chosen = [c.name for c in decision.explained.candidates if c.chosen]
                assert chosen == [force]
            candidates = engine.optimizer.candidates(spec, hints)
            assert [
                (c.detector_calls, c.total_seconds) for c in decision.explained.candidates
            ] == [(c.cost.detector_calls, c.cost.total_seconds) for c in candidates]
            plans = {candidate.name: candidate.plan for candidate in candidates}

            def price(name):
                return plans[name].estimate_cost(decision.num_frames, stats)

            for candidate in candidates:
                expected = price(candidate.name)
                if candidate.name == "auto":
                    # The adaptive aggregate: the cheapest variant it may run,
                    # the rewrite first.
                    runs = [
                        name
                        for name in ("specialized_rewrite", "control_variates")
                        if name in plans
                    ] or ["naive_aqp"]
                    expected = min(
                        (price(name) for name in runs), key=lambda c: c.total_seconds
                    )
                if indexed:
                    expected = dataclasses.replace(
                        expected, detector_calls=0, detector_seconds=0.0
                    )
                assert candidate.index_served == indexed
                assert candidate.cost == expected, candidate.name

    @pytest.mark.parametrize(
        "with_stats, text, name, calls, seconds",
        [
            (True, AGG_QUERY, "auto", 0, 0.520),
            (True, AGG_QUERY, "control_variates", 348, 116.520),
            (True, SCRUB_QUERY, "importance", 6, 2.520),
            (True, SCRUB_QUERY, "exhaustive", 9, 3.000),
            (False, AGG_QUERY, "naive_aqp", 20, 6.667),
        ],
    )
    def test_prices_on_the_tiny_video(
        self, engines, with_stats, text, name, calls, seconds
    ):
        engine = engines[with_stats, False]
        costs = {
            candidate.name: candidate.cost
            for candidate in engine.optimizer.candidates(engine.analyze(text))
        }
        assert costs[name].detector_calls == calls
        assert costs[name].total_seconds == pytest.approx(seconds, abs=5e-4)


class TestExplainSnapshots:
    """Exact renders of explain() with cost annotations, under fixed seeds.

    The tiny fixtures are fully seeded, so the statistics catalog — and with
    it every estimate in the render — is deterministic.
    """

    def test_scrubbing_render(self, tiny_engine):
        rendered = tiny_engine.session().explain(SCRUB_QUERY).render()
        assert rendered == (
            "scrubbing: ScrubbingQueryPlan(car>=2, limit=3)\n"
            "  ScrubbingQueryPlan(car>=2, limit=3, gap=0)\n"
            "    ImportanceOrderedScan(trained per query)"
            " [~0 detector calls, ~0.52s]\n"
            "    DetectorVerifier(down the ranking)"
            " [~26 detector calls, ~8.67s]\n"
            "  estimated detector calls: 26\n"
            "  hints: none\n"
            "  parallelism: sequential [cost_model] — parallelism not requested\n"
            "  candidates:\n"
            "    importance: ~6 detector calls, ~2.52s <- chosen\n"
            "    exhaustive: ~9 detector calls, ~3.00s"
        )

    def test_exact_render(self, tiny_engine):
        rendered = tiny_engine.session().explain(EXACT_QUERY).render()
        assert rendered == (
            "exact: ExactQueryPlan(reason='query shape not recognised by the "
            "rule-based optimizer')\n"
            "  ExactQueryPlan(query shape not recognised by the rule-based "
            "optimizer)\n"
            "    FullScan(detection on every frame)"
            " [~400 detector calls, ~133.33s]\n"
            "    TrackAggregator(IoU tracker, all records materialised)\n"
            "  estimated detector calls: 400\n"
            "  hints: none\n"
            "  parallelism: sequential [cost_model] — parallelism not requested\n"
            "  candidates:\n"
            "    exhaustive: ~400 detector calls, ~133.33s <- chosen"
        )

    def test_aggregate_render_shows_all_candidates(self, tiny_engine):
        rendered = tiny_engine.session().explain(AGG_QUERY).render()
        assert rendered == (
            "aggregate: AggregateQueryPlan(aggregate=fcount, class=car, "
            "error=0.1)\n"
            "  AggregateQueryPlan(aggregate=fcount, class=car, "
            "error=0.1 @ 0.95)\n"
            "    SpecializedInference(train class=car)"
            " [~0 detector calls, ~0.48s]\n"
            "    BatchMeansAccuracyGate(Algorithm 1)\n"
            "    QueryRewrite(specialized NN on every unseen frame)"
            " [~0 detector calls, ~0.04s]\n"
            "    ControlVariateSampler(adaptive CLT-bounded sampling, "
            "NN auxiliary) [~348 detector calls, ~116.00s]\n"
            "    RandomSampler(fallback: too little training data)"
            " [~400 detector calls, ~133.33s]\n"
            "  estimated detector calls: 400\n"
            "  hints: none\n"
            "  parallelism: sequential [cost_model] — parallelism not requested\n"
            "  candidates:\n"
            "    auto: ~0 detector calls, ~0.52s <- chosen\n"
            "    exact: ~400 detector calls, ~133.33s\n"
            "    naive_aqp: ~400 detector calls, ~133.33s\n"
            "    specialized_rewrite: ~0 detector calls, ~0.52s\n"
            "    control_variates: ~348 detector calls, ~116.52s"
        )

    def test_forced_render_marks_forced_candidate(self, tiny_engine):
        rendered = tiny_engine.session().explain(
            AGG_QUERY, hints=QueryHints(force_plan="naive_aqp")
        ).render()
        assert "method=naive_aqp" in rendered
        assert "RandomSampler(adaptive CLT-bounded sampling)" in rendered
        assert "hints: force_plan=naive_aqp" in rendered
        assert "naive_aqp: ~400 detector calls, ~133.33s <- chosen" in rendered
        assert "auto: ~0 detector calls, ~0.52s\n" in rendered  # not chosen

    @pytest.fixture(scope="class")
    def indexed_engine(
        self,
        tmp_path_factory,
        tiny_video,
        tiny_train_video,
        tiny_heldout_video,
        detector,
        engine_config,
    ):
        engine = BlazeIt(
            detector=detector,
            config=engine_config,
            index_dir=tmp_path_factory.mktemp("explain-index"),
        )
        engine.register_video(
            "tiny",
            test_video=tiny_video,
            train_video=tiny_train_video,
            heldout_video=tiny_heldout_video,
        )
        engine.build_index("tiny")
        return engine

    def test_indexed_render_agrees_with_its_zero_total(self, indexed_engine):
        """On an indexed video every detection is index-served: each operator
        says 0 detector calls, as the plan line does."""
        rendered = indexed_engine.session().explain(AGG_QUERY).render()
        assert rendered == (
            "aggregate: AggregateQueryPlan(aggregate=fcount, class=car, "
            "error=0.1, method=exact)\n"
            "  AggregateQueryPlan(aggregate=fcount)\n"
            "    FullScan(detection on every frame) [~0 detector calls, ~0.00s]\n"
            "  estimated detector calls: 0\n"
            "  hints: none\n"
            "  parallelism: sequential [cost_model] — parallelism not requested\n"
            "  candidates:\n"
            "    auto: ~0 detector calls, ~0.52s\n"
            "    exact: ~0 detector calls, ~0.00s <- chosen\n"
            "    naive_aqp: ~0 detector calls, ~0.00s\n"
            "    specialized_rewrite: ~0 detector calls, ~0.52s\n"
            "    control_variates: ~0 detector calls, ~0.52s"
        )

    def test_indexed_render_keeps_non_detector_seconds(self, indexed_engine):
        """Only detector work is index-served: the ranking still trains."""
        explanation = indexed_engine.session().explain(
            SCRUB_QUERY, hints=QueryHints(force_plan="importance")
        )
        assert explanation.operators.render() == (
            "ScrubbingQueryPlan(car>=2, limit=3, gap=0)\n"
            "  ImportanceOrderedScan(trained per query) [~0 detector calls, ~0.52s]\n"
            "  DetectorVerifier(down the ranking) [~0 detector calls, ~0.00s]"
        )
        assert explanation.estimated_detector_calls == 0

    def test_unannotated_tree_without_statistics(self):
        """Trees built without num_frames/stats carry no cost annotations."""
        from repro.frameql.analyzer import analyze
        from repro.frameql.parser import parse

        optimizer = CostBasedOptimizer(default_udf_registry())
        plan = optimizer.plan(analyze(parse(EXACT_QUERY)))
        assert "detector calls" not in plan.operator_tree().render()


class TestEstimateBoundsActuals:
    """`estimate_detector_calls` must bound the executed ledger counts.

    One invariant check per query class, for the default plan and for every
    contract-honouring forced alternative, under fixed seeds.
    """

    @pytest.mark.parametrize(
        "text", [AGG_QUERY, SCRUB_QUERY, SELECT_QUERY, EXACT_QUERY]
    )
    def test_estimate_bounds_actual(self, tiny_engine, text):
        stats = tiny_engine.catalog.get("tiny")
        num_frames = tiny_engine.store.get("tiny").num_frames
        session = tiny_engine.session()
        spec = tiny_engine.analyze(text)
        for forced in [None, *CONTRACT_ALTERNATIVES[text]]:
            hints = QueryHints(force_plan=forced) if forced else None
            plan = tiny_engine.optimizer.plan(spec, hints=hints)
            estimate = plan.estimate_detector_calls(num_frames, stats)
            result = session.execute(
                text, hints=hints, rng=np.random.default_rng(11)
            )
            actual = result.execution_ledger.detector_calls
            assert actual <= estimate, (
                f"{text!r} force_plan={forced}: actual {actual} exceeds "
                f"estimate {estimate}"
            )

    @pytest.mark.parametrize("forced", ["naive_aqp", "control_variates"])
    def test_tolerance_above_the_value_range_still_samples_two_frames(
        self, tiny_engine, forced
    ):
        """``ERROR WITHIN >= K`` makes the epsilon-net minimum a single frame;
        one frame has no variance and used to certify a zero-width interval."""
        text = "SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 10"
        hints = QueryHints(force_plan=forced)
        prepared = tiny_engine.session().prepare(text, hints=hints)
        result = prepared.execute(rng=np.random.default_rng(1))
        assert result.method == forced
        assert result.samples_used >= 2
        estimate = prepared.plan.estimate_detector_calls(
            400, tiny_engine.catalog.get("tiny")
        )
        assert result.execution_ledger.detector_calls <= estimate

    def test_estimates_without_statistics_fall_back_to_population(self, tiny_engine):
        """Without a catalog the only safe bound is the whole video."""
        for text in (AGG_QUERY, SCRUB_QUERY, SELECT_QUERY, EXACT_QUERY):
            plan = tiny_engine.optimizer.plan(tiny_engine.analyze(text))
            assert plan.estimate_detector_calls(400, None) == 400

    def test_gap_scrubbing_estimate_bounds_actual(self, tiny_engine):
        """GAP forces hits into different bursts; the bound must budget the
        empty stretches a sequential scan pays crossing between them."""
        text = (
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 1 LIMIT 4 GAP 90"
        )
        stats = tiny_engine.catalog.get("tiny")
        for forced in (None, "exhaustive", "importance"):
            hints = QueryHints(force_plan=forced) if forced else None
            plan = tiny_engine.optimizer.plan(tiny_engine.analyze(text), hints=hints)
            estimate = plan.estimate_detector_calls(400, stats)
            result = tiny_engine.session().execute(
                text, hints=hints, rng=np.random.default_rng(0)
            )
            assert result.execution_ledger.detector_calls <= estimate, forced

    def test_selection_estimate_is_population_bound(self, tiny_engine):
        """Filter pass rates are calibrated at execution time, so the only
        bound that always holds is the population; the survival reduction
        lives in the candidate pricing only."""
        stats = tiny_engine.catalog.get("tiny")
        plan = tiny_engine.optimizer.plan(tiny_engine.analyze(SELECT_QUERY))
        assert plan.estimate_detector_calls(400, stats) == 400
        # A filter-class subset with no pruning filter prices a full scan.
        hints = QueryHints(selection_filter_classes={"spatial"})
        spatial_only = tiny_engine.optimizer.plan(
            tiny_engine.analyze(SELECT_QUERY), hints=hints
        )
        cost = spatial_only.estimate_cost(400, stats)
        assert cost.detector_calls == 400
        assert cost.training_seconds == 0.0

    def test_forced_rewrite_estimate_is_zero(self, tiny_engine):
        plan = tiny_engine.optimizer.plan(
            tiny_engine.analyze(AGG_QUERY),
            hints=QueryHints(force_plan="specialized_rewrite"),
        )
        stats = tiny_engine.catalog.get("tiny")
        assert plan.estimate_detector_calls(400, stats) == 0


class TestCostChosenProperty:
    """The cost-chosen plan never does more detector calls than any forced,
    contract-honouring alternative executed under the same RNG stream."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @pytest.mark.parametrize(
        "text", [AGG_QUERY, SCRUB_QUERY, SELECT_QUERY, EXACT_QUERY]
    )
    def test_chosen_no_worse_than_forced(self, tiny_engine, text, seed):
        session = tiny_engine.session()
        chosen = session.execute(text, rng=np.random.default_rng(seed))
        chosen_calls = chosen.execution_ledger.detector_calls
        for forced in CONTRACT_ALTERNATIVES[text]:
            alternative = session.execute(
                text,
                hints=QueryHints(force_plan=forced),
                rng=np.random.default_rng(seed),
            )
            assert (
                chosen_calls <= alternative.execution_ledger.detector_calls
            ), (
                f"{text!r}: chosen plan used {chosen_calls} detector calls, "
                f"forced {forced!r} used "
                f"{alternative.execution_ledger.detector_calls}"
            )


class _GilBoundDetector(SimulatedDetector):
    gil_bound = True


class TestParallelismVerdict:
    def test_explain_and_execution_agree_with_a_recording_attached(
        self, monkeypatch
    ):
        """Regression: ``explain()`` probed only detector picklability while
        execution also refused a recorded test day, so a GIL-bound detector
        over a recording explained ``processes x 2`` and ran sequential."""
        base = SimulatedDetector.mask_rcnn()
        engine = BlazeIt(
            detector=_GilBoundDetector(
                name=base.name,
                cost=base.cost,
                noise=base.noise,
                confidence_threshold=base.confidence_threshold,
                supported=base._supported,
                seed=base.seed,
            )
        )
        engine.register_scenario("rialto", num_frames=1500)
        engine.record_test_day("rialto")
        verdicts = []
        decide = ParallelismModel.decide

        def recording_decide(self, *args, **kwargs):
            decision = decide(self, *args, **kwargs)
            verdicts.append(decision.describe())
            return decision

        monkeypatch.setattr(ParallelismModel, "decide", recording_decide)
        with engine.session() as session:
            prepared = session.prepare(
                "SELECT * FROM rialto", hints=QueryHints(parallelism=2)
            )
            explained = prepared.explain().parallelism
            prepared.execute()
        assert len(verdicts) == 2, "one verdict for explain, one for execution"
        assert explained == verdicts[0] == verdicts[1]


def _decide(
    requested=4, gil_bound=False, process_ok=True, backend_constraint=None
):
    """The model's verdict on a scan of 10,000 frames at 0.1 s per detector
    call (1,000 s sequential), with no speculative waste."""
    stats = SimpleNamespace(detector_seconds_per_call=0.1)
    return ParallelismModel().decide(
        cost=CostEstimate(detector_calls=10_000),
        stats=stats,
        num_frames=10_000,
        requested=requested,
        batch_size=16,
        window_chunks=2,
        gil_bound=gil_bound,
        process_ok=process_ok,
        backend_constraint=backend_constraint,
    )


class TestParallelismModel:
    @pytest.mark.parametrize("requested", [0, 1])
    def test_unrequested_parallelism_is_sequential(self, requested):
        decision = _decide(requested=requested)
        assert (decision.backend, decision.workers) == ("sequential", 1)
        assert decision.reason == "parallelism not requested"

    @pytest.mark.parametrize(
        "gil_bound, process_ok, constraint, expected",
        [
            (False, True, None, ("threads", 4)),
            (True, True, None, ("processes", 4)),
            # Threads serialize on a GIL-bound detector: no overlap to buy.
            (True, False, None, ("sequential", 1)),
            (False, True, "processes", ("processes", 4)),
            (False, True, "threads", ("threads", 4)),
        ],
        ids=[
            "gil-free", "gil-bound", "gil-bound-unexportable",
            "constrained-processes", "constrained-threads",
        ],
    )
    def test_backend_follows_the_detector(
        self, gil_bound, process_ok, constraint, expected
    ):
        decision = _decide(
            gil_bound=gil_bound, process_ok=process_ok, backend_constraint=constraint
        )
        assert (decision.backend, decision.workers) == expected
        assert decision.sequential_seconds == pytest.approx(1000.0)

    def test_startup_constants_are_read_at_decision_time(self, monkeypatch):
        monkeypatch.setattr(cost_module, "THREAD_STARTUP_SECONDS", 1000.0)
        assert _decide().backend == "processes"
        monkeypatch.setattr(cost_module, "PROCESS_STARTUP_SECONDS", 1000.0)
        assert _decide().backend == "sequential"

    def test_margin_constant_is_read_at_decision_time(self, monkeypatch):
        decision = _decide()
        assert decision.parallel_seconds == pytest.approx(0.05 * 4 + 1000.0 / 4)
        # 1000 s sequential against ~250 s on four threads: a 4x speedup
        # clears the default 1.3 margin, not a margin of 5.
        monkeypatch.setattr(cost_module, "PARALLEL_MARGIN", 5.0)
        assert _decide().backend == "sequential"

    @pytest.mark.parametrize("requested", [2, 3, 8])
    def test_heavy_scan_uses_every_requested_worker(self, requested):
        decision = _decide(requested=requested)
        assert (decision.backend, decision.workers) == ("threads", requested)


def _flat(node, depth=0):
    """``(name, detail, depth, est calls, est seconds)`` rows of a tree."""
    rows = [
        (node.name, node.detail, depth, node.estimated_detector_calls,
         node.estimated_seconds)
    ]
    for child in node.children:
        rows.extend(_flat(child, depth + 1))
    return rows


LATE_SCRUB = (
    "SELECT timestamp FROM v GROUP BY timestamp "
    "HAVING SUM(class='car') >= 1 LIMIT 5"
)
LATE_AGG = "SELECT FCOUNT(*) FROM v WHERE class='car' ERROR WITHIN 0.1"
LATE_SELECT = "SELECT * FROM v WHERE class='bus' AND redness(content) >= 17.5"


class TestPlanDecisionRecord:
    """EXPLAIN, EXPLAIN ANALYZE and routing read the decision plan() made.

    Regressions: each reader used to re-derive the choice from the catalog
    as it stood when it ran, so statistics attached after prepare() (or an
    index) made them describe a plan other than the one that runs.
    """

    def test_explain_marks_the_prepared_plan_chosen(
        self, stats_free_engine, late_days
    ):
        prepared = stats_free_engine.session().prepare(LATE_SCRUB)
        described = {
            candidate.name: candidate.plan.describe()
            for candidate in stats_free_engine.optimizer.candidates(prepared.spec)
        }
        stats_free_engine.attach_labeled_set("v", late_days[1])
        chosen = [c.name for c in prepared.explain().candidates if c.chosen]
        assert [described[name] for name in chosen] == [prepared.plan.describe()]

    def test_analyze_estimates_are_the_explain_estimates(
        self, tmp_path, detector, engine_config
    ):
        def day(name, seed):
            spec = make_video_spec(name=name, num_frames=1200, seed=seed)
            return SyntheticVideo.generate(spec)

        engine = BlazeIt(detector=detector, config=engine_config, index_dir=tmp_path)
        engine.register_video(
            "v",
            test_video=day("v", 3),
            train_video=day("v-train", 4),
            heldout_video=day("v-heldout", 5),
        )
        engine.build_index("v")
        prepared = engine.session().prepare("SELECT * FROM v WHERE class='car'")
        explained = _flat(prepared.explain().operators)
        profile = prepared.explain(analyze=True)
        analyzed = [
            (op.name, op.detail, op.depth, op.estimated_detector_calls,
             op.estimated_seconds)
            for op in profile.operators
        ]
        assert analyzed == explained

    @pytest.mark.parametrize("text", [LATE_AGG, LATE_SELECT])
    def test_routed_verdict_is_priced_on_the_planned_frames(
        self, stats_free_engine, late_days, text
    ):
        session = stats_free_engine.session(hints=QueryHints(parallelism=4))
        prepared = session.prepare(text)
        stats_free_engine.attach_labeled_set("v", late_days[1])
        verdict = prepared.explain().parallelism
        stream = prepared.stream(rng=np.random.default_rng(0))
        workers = stream.workers
        stream.close()
        expected = f"threads x {workers}" if workers > 1 else "sequential"
        assert verdict.startswith(expected), (verdict, workers)
        assert "0 expected detector calls" not in verdict
        assert prepared.plan.decision.num_frames == 2000

    @pytest.mark.parametrize(
        "text", [AGG_QUERY, SCRUB_QUERY, SELECT_QUERY, EXACT_QUERY]
    )
    @pytest.mark.parametrize("parallelism", [None, 2])
    def test_explain_never_replans(self, tiny_engine, monkeypatch, text, parallelism):
        prepared = tiny_engine.session().prepare(
            text, hints=QueryHints(parallelism=parallelism)
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the decision was re-derived after prepare()")

        monkeypatch.setattr(CostBasedOptimizer, "candidates", refuse)
        monkeypatch.setattr(StatisticsCatalog, "get", refuse)
        prepared.explain()
        prepared.explain(analyze=True)
