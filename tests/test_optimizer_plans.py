"""Tests for the physical plans and the rule-based optimizer."""

import numpy as np
import pytest

from repro.core.config import AggregateMethod
from repro.core.context import ExecutionContext
from repro.core.results import (
    AggregateResult,
    ExactResult,
    ScrubbingQueryResult,
    SelectionResult,
)
from repro.errors import PlanningError, UnknownUDFError
from repro.frameql.analyzer import analyze
from repro.frameql.parser import parse
from repro.optimizer.aggregates import AggregateQueryPlan
from repro.optimizer.cost import CostBasedOptimizer
from repro.optimizer.exact import ExactQueryPlan
from repro.optimizer.scrubbing import ScrubbingQueryPlan
from repro.optimizer.selection import SelectionQueryPlan
from repro.udf.registry import default_udf_registry

from conftest import run_plan


def _spec(text):
    return analyze(parse(text))


@pytest.fixture()
def context(tiny_video, tiny_labeled_set, tiny_recorded, detector, engine_config):
    return ExecutionContext(
        video=tiny_video,
        detector=detector,
        udf_registry=default_udf_registry(),
        config=engine_config,
        labeled_set=tiny_labeled_set,
        recorded=tiny_recorded,
        rng=np.random.default_rng(0),
    )


class TestExecutionContext:
    def test_detect_charges_cost(self, context, detector):
        from repro.metrics.runtime import RuntimeLedger

        ledger = RuntimeLedger()
        context.detect_batch([0], ledger)
        assert ledger.total_seconds == pytest.approx(detector.cost.seconds_per_call)

    def test_detect_cost_scale(self, context, detector):
        from repro.metrics.runtime import RuntimeLedger

        ledger = RuntimeLedger()
        context.detect_batch([0], ledger, cost_scale=0.5)
        assert ledger.total_seconds == pytest.approx(
            detector.cost.seconds_per_call * 0.5
        )

    def test_detect_counts_match_recording(self, context, tiny_recorded):
        counts = context.detect_counts_batch(np.array([0, 1, 2]), "car")
        np.testing.assert_array_equal(counts, tiny_recorded.counts("car")[:3])

    def test_test_features_cached(self, context):
        assert context.test_features() is context.test_features()

    def test_require_labeled_set_raises_without_one(self, tiny_video, detector, engine_config):
        bare = ExecutionContext(
            video=tiny_video,
            detector=detector,
            udf_registry=default_udf_registry(),
            config=engine_config,
        )
        with pytest.raises(RuntimeError):
            bare.require_labeled_set()


class TestAggregatePlan:
    def test_auto_mode_is_accurate(self, context, tiny_recorded):
        plan = AggregateQueryPlan(
            _spec("SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1")
        )
        result = run_plan(plan, context)
        assert isinstance(result, AggregateResult)
        truth = tiny_recorded.mean_count("car")
        assert abs(result.value - truth) <= 0.25
        assert result.method in ("specialized_rewrite", "control_variates", "naive_aqp")

    def test_exact_mode(self, context, tiny_recorded, tiny_video):
        plan = AggregateQueryPlan(
            _spec("SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1"),
            method=AggregateMethod.EXACT,
        )
        result = run_plan(plan, context)
        assert result.method == "exact"
        assert result.detection_calls == tiny_video.num_frames
        assert result.value == pytest.approx(tiny_recorded.mean_count("car"))

    def test_no_error_bound_falls_back_to_exact(self, context, tiny_video):
        plan = AggregateQueryPlan(_spec("SELECT FCOUNT(*) FROM tiny WHERE class='car'"))
        result = run_plan(plan, context)
        assert result.method == "exact"
        assert result.detection_calls == tiny_video.num_frames

    def test_forced_aqp(self, context):
        plan = AggregateQueryPlan(
            _spec("SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.2"),
            method=AggregateMethod.NAIVE_AQP,
        )
        result = run_plan(plan, context)
        assert result.method == "naive_aqp"
        assert 0 < result.detection_calls <= context.video.num_frames

    def test_forced_rewrite_uses_no_detection(self, context):
        plan = AggregateQueryPlan(
            _spec("SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1"),
            method=AggregateMethod.SPECIALIZED_REWRITE,
        )
        result = run_plan(plan, context)
        assert result.method == "specialized_rewrite"
        assert result.detection_calls == 0
        assert result.ledger.call_count("specialized_nn") >= context.video.num_frames

    def test_forced_control_variates(self, context):
        plan = AggregateQueryPlan(
            _spec("SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1"),
            method=AggregateMethod.CONTROL_VARIATES,
        )
        result = run_plan(plan, context)
        assert result.method == "control_variates"
        assert result.correlation is not None
        assert 0 < result.detection_calls < context.video.num_frames

    def test_optimized_is_cheaper_than_exact(self, context):
        optimized = run_plan(AggregateQueryPlan(
            _spec("SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1")
        ), context)
        exact = run_plan(AggregateQueryPlan(
            _spec("SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1"),
            method=AggregateMethod.EXACT,
        ), context)
        assert optimized.runtime_seconds < exact.runtime_seconds

    def test_count_aggregate_scales_by_frames(self, context, tiny_video):
        fcount = run_plan(AggregateQueryPlan(
            _spec("SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1"),
            method=AggregateMethod.EXACT,
        ), context)
        count = run_plan(AggregateQueryPlan(
            _spec("SELECT COUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1"),
            method=AggregateMethod.EXACT,
        ), context)
        assert count.value == pytest.approx(fcount.value * tiny_video.num_frames)

    def test_count_distinct_uses_tracker(self, context, tiny_video):
        plan = AggregateQueryPlan(
            _spec("SELECT COUNT(DISTINCT trackid) FROM tiny WHERE class='car'")
        )
        result = run_plan(plan, context)
        assert result.method == "exact"
        true_distinct = tiny_video.distinct_count("car")
        assert 0 < result.value <= 3 * true_distinct + 5

    def test_missing_class_predicate_rejected(self):
        with pytest.raises(PlanningError):
            AggregateQueryPlan(_spec("SELECT FCOUNT(*) FROM tiny ERROR WITHIN 0.1"))

    def test_unknown_class_falls_back_to_aqp(self, context):
        plan = AggregateQueryPlan(
            _spec("SELECT FCOUNT(*) FROM tiny WHERE class='bear' ERROR WITHIN 0.1")
        )
        result = run_plan(plan, context)
        # No bears in the training data: the paper's rule is to default to AQP.
        assert result.method == "naive_aqp"
        assert result.value == pytest.approx(0.0, abs=0.05)


class TestScrubbingPlan:
    def test_finds_requested_events(self, context, tiny_recorded):
        plan = ScrubbingQueryPlan(
            _spec(
                "SELECT timestamp FROM tiny GROUP BY timestamp "
                "HAVING SUM(class='car') >= 2 LIMIT 3"
            )
        )
        result = run_plan(plan, context)
        assert isinstance(result, ScrubbingQueryResult)
        counts = tiny_recorded.counts("car")
        for frame in result.frames:
            assert counts[frame] >= 2

    def test_respects_limit_and_gap(self, context):
        plan = ScrubbingQueryPlan(
            _spec(
                "SELECT timestamp FROM tiny GROUP BY timestamp "
                "HAVING SUM(class='car') >= 1 LIMIT 4 GAP 50"
            )
        )
        result = run_plan(plan, context)
        assert len(result.frames) <= 4
        frames = sorted(result.frames)
        assert all(b - a >= 50 for a, b in zip(frames, frames[1:], strict=False))

    def test_timestamps_match_frames(self, context, tiny_video):
        plan = ScrubbingQueryPlan(
            _spec(
                "SELECT timestamp FROM tiny GROUP BY timestamp "
                "HAVING SUM(class='car') >= 1 LIMIT 2"
            )
        )
        result = run_plan(plan, context)
        for frame, timestamp in zip(result.frames, result.timestamps, strict=True):
            assert timestamp == pytest.approx(frame / tiny_video.fps)

    def test_indexed_mode_is_cheaper(self, context):
        spec_text = (
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 2 LIMIT 3"
        )
        normal = run_plan(ScrubbingQueryPlan(_spec(spec_text), indexed=False), context)
        indexed = run_plan(ScrubbingQueryPlan(_spec(spec_text), indexed=True), context)
        assert indexed.runtime_seconds < normal.runtime_seconds
        assert set(indexed.frames) == set(normal.frames)

    def test_no_training_instances_falls_back_to_exhaustive(self, context):
        plan = ScrubbingQueryPlan(
            _spec(
                "SELECT timestamp FROM tiny GROUP BY timestamp "
                "HAVING SUM(class='car') >= 50 LIMIT 1"
            )
        )
        result = run_plan(plan, context)
        assert result.method == "exhaustive"
        assert result.frames == []
        assert not result.satisfied

    def test_invalid_spec_rejected(self):
        spec = _spec(
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 1 LIMIT 5"
        )
        spec.limit = 0
        with pytest.raises(PlanningError):
            ScrubbingQueryPlan(spec)


class TestSelectionPlan:
    def test_red_bus_query_returns_matching_records(self, context):
        plan = SelectionQueryPlan(
            _spec(
                "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5"
            )
        )
        result = run_plan(plan, context)
        assert isinstance(result, SelectionResult)
        for record in result.records:
            assert record.object_class == "bus"
            assert record.color_name == "red"
            assert record.trackid is not None

    def test_filtered_plan_cheaper_than_exhaustive(self, context):
        # A selection for large buses: the positives are clearly visible, so
        # the inferred label filter prunes most frames before detection.
        text = "SELECT timestamp FROM tiny WHERE class = 'bus' AND area(mask) > 100000"
        filtered = run_plan(SelectionQueryPlan(_spec(text)), context)
        exhaustive = run_plan(SelectionQueryPlan(
            _spec(text), enabled_filter_classes=set()
        ), context)
        assert filtered.runtime_seconds < exhaustive.runtime_seconds
        assert exhaustive.method == "exhaustive"
        # The filtered plan may only lose frames to filter false negatives,
        # never gain spurious ones.
        assert set(filtered.matched_frames) <= set(exhaustive.matched_frames)

    def test_no_false_positives(self, context, tiny_recorded):
        """Every returned frame must truly contain a matching detection."""
        text = "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5"
        result = run_plan(SelectionQueryPlan(_spec(text)), context)
        for frame in result.matched_frames:
            detections = tiny_recorded.result(frame).detections
            assert any(
                d.object_class == "bus" and d.color_name == "red" for d in detections
            )

    def test_min_area_respected(self, context):
        result = run_plan(SelectionQueryPlan(
            _spec("SELECT * FROM tiny WHERE class = 'bus' AND area(mask) > 200000")
        ), context)
        for record in result.records:
            assert record.mask.area > 200000

    def test_invalid_spec_rejected(self):
        spec = _spec("SELECT timestamp FROM tiny WHERE class = 'car'")
        spec.object_class = None
        with pytest.raises(PlanningError):
            SelectionQueryPlan(spec)


class TestExactPlanAndRules:
    def test_exact_plan_materialises_records(self, context):
        plan = ExactQueryPlan(_spec("SELECT * FROM tiny"))
        result = run_plan(plan, context)
        assert isinstance(result, ExactResult)
        assert result.detection_calls == context.video.num_frames
        assert result.records, "expected at least one record in the tiny video"
        assert all(r.trackid is not None for r in result.records)

    def test_rules_map_spec_to_plan(self):
        optimizer = CostBasedOptimizer(default_udf_registry())
        assert isinstance(
            optimizer.plan(_spec("SELECT FCOUNT(*) FROM v WHERE class='car' ERROR WITHIN 0.1")),
            AggregateQueryPlan,
        )
        assert isinstance(
            optimizer.plan(
                _spec(
                    "SELECT timestamp FROM v GROUP BY timestamp "
                    "HAVING SUM(class='car')>=1 LIMIT 5"
                )
            ),
            ScrubbingQueryPlan,
        )
        assert isinstance(
            optimizer.plan(_spec("SELECT * FROM v WHERE class='bus' AND redness(content) >= 10")),
            SelectionQueryPlan,
        )
        assert isinstance(optimizer.plan(_spec("SELECT * FROM v")), ExactQueryPlan)

    def test_rules_reject_unknown_udf(self):
        optimizer = CostBasedOptimizer(default_udf_registry())
        with pytest.raises(UnknownUDFError):
            optimizer.plan(
                _spec("SELECT * FROM v WHERE class='car' AND squareness(content) > 3")
            )

    def test_plan_descriptions_are_informative(self):
        optimizer = CostBasedOptimizer(default_udf_registry())
        plan = optimizer.plan(
            _spec("SELECT FCOUNT(*) FROM v WHERE class='car' ERROR WITHIN 0.1")
        )
        assert "car" in plan.describe()
