"""Tests for the evaluation workloads and the exception hierarchy."""

import pytest

from repro import errors
from repro.frameql.analyzer import (
    AggregateQuerySpec,
    ScrubbingQuerySpec,
    SelectionQuerySpec,
    analyze,
)
from repro.frameql.parser import parse
from repro.workloads.queries import (
    AGGREGATE_VIDEOS,
    SCRUBBING_QUERIES,
    aggregate_query,
    multiclass_scrubbing_query,
    red_bus_selection_query,
    scrubbing_query,
)


class TestWorkloadQueries:
    def test_aggregate_queries_parse_for_every_video(self):
        for video, object_class in AGGREGATE_VIDEOS.items():
            spec = analyze(parse(aggregate_query(video, object_class)))
            assert isinstance(spec, AggregateQuerySpec)
            assert spec.video == video
            assert spec.object_class == object_class

    def test_scrubbing_queries_parse_for_every_video(self):
        for video, workload in SCRUBBING_QUERIES.items():
            text = scrubbing_query(
                workload.video, workload.object_class, workload.min_count
            )
            spec = analyze(parse(text))
            assert isinstance(spec, ScrubbingQuerySpec)
            assert spec.min_counts == {workload.object_class: workload.min_count}
            assert video == workload.video

    def test_multiclass_scrubbing_query(self):
        spec = analyze(parse(multiclass_scrubbing_query("taipei", {"bus": 1, "car": 5})))
        assert isinstance(spec, ScrubbingQuerySpec)
        assert spec.min_counts == {"bus": 1, "car": 5}

    def test_red_bus_selection_query(self):
        spec = analyze(parse(red_bus_selection_query()))
        assert isinstance(spec, SelectionQuerySpec)
        assert spec.object_class == "bus"
        assert spec.min_area == pytest.approx(100000)

    def test_custom_error_and_confidence(self):
        spec = analyze(parse(aggregate_query("taipei", "car", error=0.03, confidence=0.99)))
        assert spec.error_tolerance == pytest.approx(0.03)
        assert spec.confidence == pytest.approx(0.99)

    def test_scrubbing_query_limit_and_gap(self):
        spec = analyze(parse(scrubbing_query("taipei", "car", 6, limit=25, gap=60)))
        assert spec.limit == 25
        assert spec.gap == 60


class TestErrorHierarchy:
    def test_all_errors_derive_from_blazeit_error(self):
        error_classes = [
            errors.FrameQLSyntaxError,
            errors.FrameQLAnalysisError,
            errors.UnknownVideoError,
            errors.UnknownUDFError,
            errors.InsufficientTrainingDataError,
            errors.PlanningError,
            errors.ExecutionError,
            errors.ConfigurationError,
        ]
        for error_class in error_classes:
            assert issubclass(error_class, errors.BlazeItError)

    def test_syntax_error_carries_position(self):
        error = errors.FrameQLSyntaxError("bad token", position=12)
        assert error.position == 12
        assert "12" in str(error)

    def test_syntax_error_without_position(self):
        error = errors.FrameQLSyntaxError("bad token")
        assert error.position is None

    def test_catching_base_class_catches_all(self):
        with pytest.raises(errors.BlazeItError):
            raise errors.PlanningError("nope")
