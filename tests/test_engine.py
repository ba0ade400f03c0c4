"""End-to-end tests for the BlazeIt engine."""

import numpy as np
import pytest

from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.results import (
    AggregateResult,
    ExactResult,
    ScrubbingQueryResult,
    SelectionResult,
)
from repro.errors import (
    ConfigurationError,
    FrameQLAnalysisError,
    FrameQLSyntaxError,
    UnknownVideoError,
)


class TestRegistration:
    def test_videos_listed(self, tiny_engine):
        assert tiny_engine.videos() == ["tiny"]

    def test_labeled_set_built(self, tiny_engine):
        assert tiny_engine.labeled_set("tiny") is not None
        assert tiny_engine.labeled_set("other") is None

    def test_detector_for_default(self, tiny_engine, detector):
        assert tiny_engine.detector_for("tiny") is detector

    def test_register_without_labeled_set(self, tiny_video, detector, engine_config):
        engine = BlazeIt(detector=detector, config=engine_config)
        engine.register_video("bare", test_video=tiny_video)
        assert engine.labeled_set("bare") is None

    def test_register_scenario(self, detector, engine_config):
        engine = BlazeIt(detector=detector, config=engine_config)
        engine.register_scenario("night-street", num_frames=300)
        assert "night-street" in engine.videos()
        assert engine.labeled_set("night-street") is not None

    def test_query_unknown_video_raises(self, tiny_engine):
        with pytest.raises(UnknownVideoError):
            tiny_engine.query("SELECT FCOUNT(*) FROM nowhere WHERE class='car' ERROR WITHIN 0.1")


class TestQueryExecution:
    def test_aggregate_query(self, tiny_engine):
        result = tiny_engine.query(
            "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' "
            "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
        )
        assert isinstance(result, AggregateResult)
        truth = tiny_engine._recorded["tiny"].mean_count("car")
        assert abs(result.value - truth) <= 0.25
        assert result.runtime_seconds > 0

    def test_scrubbing_query(self, tiny_engine):
        result = tiny_engine.query(
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 2 LIMIT 3 GAP 10"
        )
        assert isinstance(result, ScrubbingQueryResult)
        assert len(result.frames) <= 3
        counts = tiny_engine._recorded["tiny"].counts("car")
        assert all(counts[f] >= 2 for f in result.frames)

    def test_selection_query(self, tiny_engine):
        result = tiny_engine.query(
            "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5"
        )
        assert isinstance(result, SelectionResult)
        assert all(r.object_class == "bus" for r in result.records)

    def test_exact_query(self, tiny_engine):
        result = tiny_engine.query("SELECT * FROM tiny")
        assert isinstance(result, ExactResult)
        assert result.detection_calls == tiny_engine.store.get("tiny").num_frames

    def test_syntax_error_propagates(self, tiny_engine):
        with pytest.raises(FrameQLSyntaxError):
            tiny_engine.query("SELECT FROM WHERE")

    def test_analysis_error_propagates(self, tiny_engine):
        with pytest.raises(FrameQLAnalysisError):
            tiny_engine.query("SELECT speed FROM tiny WHERE class='car'")

    def test_repeated_query_is_deterministic(self, tiny_engine):
        text = (
            "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' "
            "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
        )
        a = tiny_engine.query(text, rng=np.random.default_rng(5))
        b = tiny_engine.query(text, rng=np.random.default_rng(5))
        assert a.value == pytest.approx(b.value)
        assert a.detection_calls == b.detection_calls

    def test_selection_filter_class_override(self, tiny_engine):
        from repro.api import QueryHints

        text = "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5"
        label_only = tiny_engine.query(
            text, hints=QueryHints(selection_filter_classes={"label"})
        )
        assert isinstance(label_only, SelectionResult)
        none = tiny_engine.query(
            text, hints=QueryHints(selection_filter_classes=frozenset())
        )
        assert none.method == "exhaustive"

    def test_scrubbing_indexed_flag(self, tiny_engine):
        from repro.api import QueryHints

        text = (
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 2 LIMIT 3"
        )
        normal = tiny_engine.query(text)
        indexed = tiny_engine.query(text, hints=QueryHints(scrubbing_indexed=True))
        assert indexed.runtime_seconds <= normal.runtime_seconds


class TestPlanningHelpers:
    def test_explain(self, tiny_engine):
        text = "SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1"
        explanation = tiny_engine.explain(text)
        assert "aggregate" in explanation
        assert "car" in explanation

    def test_plan_returns_spec_and_plan(self, tiny_engine):
        spec, plan = tiny_engine.plan(
            "SELECT timestamp FROM tiny GROUP BY timestamp "
            "HAVING SUM(class='car') >= 1 LIMIT 5"
        )
        assert spec.kind.value == "scrubbing"
        assert "Scrubbing" in plan.describe()

    def test_analyze_shortcut(self, tiny_engine):
        spec = tiny_engine.analyze("SELECT * FROM tiny WHERE class='car'")
        assert spec.video == "tiny"

    def test_execution_context_for_unknown_video(self, tiny_engine):
        with pytest.raises(UnknownVideoError):
            tiny_engine.execution_context("nope")


class TestConfig:
    def test_invalid_config_values(self):
        with pytest.raises(ConfigurationError):
            BlazeItConfig(min_training_positives=-1)

    def test_defaults(self):
        config = BlazeItConfig()
        assert config.include_training_time is True

    def test_no_train_config_excludes_training_cost(
        self, tiny_video, tiny_train_video, tiny_heldout_video, detector, fast_training_config
    ):
        """The Figure 4 "BlazeIt (no train)" variant charges no training time."""
        from repro.api.hints import QueryHints

        results = {}
        for include in (True, False):
            engine = BlazeIt(
                detector=detector,
                config=BlazeItConfig(
                    training=fast_training_config,
                    min_training_positives=20,
                    include_training_time=include,
                    seed=11,
                ),
            )
            engine.register_video(
                "tiny",
                test_video=tiny_video,
                train_video=tiny_train_video,
                heldout_video=tiny_heldout_video,
            )
            results[include] = engine.query(
                "SELECT FCOUNT(*) FROM tiny WHERE class='car' ERROR WITHIN 0.1",
                hints=QueryHints(force_plan="control_variates"),
            )
        assert results[True].ledger.call_count("specialized_nn_train") > 0
        assert results[False].ledger.call_count("specialized_nn_train") == 0
        assert results[False].runtime_seconds < results[True].runtime_seconds
