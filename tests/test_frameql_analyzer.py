"""Tests for FrameQL semantic analysis and query classification."""

import pytest

from repro.errors import FrameQLAnalysisError
from repro.frameql.analyzer import (
    AggregateQuerySpec,
    ExactQuerySpec,
    QueryKind,
    ScrubbingQuerySpec,
    SelectionQuerySpec,
    analyze,
)
from repro.frameql.parser import parse
from repro.frameql.schema import FRAMEQL_SCHEMA, FrameRecord, is_valid_column
from repro.video.geometry import BoundingBox
from repro.workloads.queries import (
    aggregate_query,
    multiclass_scrubbing_query,
    red_bus_selection_query,
    scrubbing_query,
)


def _analyze(text):
    return analyze(parse(text))


class TestSchema:
    def test_table1_fields_present(self):
        assert set(FRAMEQL_SCHEMA) == {
            "timestamp",
            "class",
            "mask",
            "trackid",
            "content",
            "features",
        }

    def test_is_valid_column(self):
        assert is_valid_column("timestamp")
        assert not is_valid_column("speed")

    def test_frame_record_field_access(self):
        record = FrameRecord(
            timestamp=1.0,
            frame_index=30,
            object_class="car",
            mask=BoundingBox(0, 0, 10, 10),
            trackid=7,
            color=(200.0, 40.0, 40.0),
        )
        assert record.field("class") == "car"
        assert record.field("trackid") == 7
        assert record.field("timestamp") == 1.0
        assert record.field("mask").area == 100.0
        assert record.field("content") == (200.0, 40.0, 40.0)
        with pytest.raises(KeyError):
            record.field("velocity")


class TestAggregateClassification:
    def test_fcount_query(self):
        spec = _analyze(aggregate_query("taipei", "car"))
        assert isinstance(spec, AggregateQuerySpec)
        assert spec.kind == QueryKind.AGGREGATE
        assert spec.aggregate == "fcount"
        assert spec.object_class == "car"
        assert spec.error_tolerance == pytest.approx(0.1)
        assert spec.confidence == pytest.approx(0.95)

    def test_count_query(self):
        spec = _analyze("SELECT COUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1")
        assert isinstance(spec, AggregateQuerySpec)
        assert spec.aggregate == "count"

    def test_count_distinct_query(self):
        spec = _analyze("SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car'")
        assert isinstance(spec, AggregateQuerySpec)
        assert spec.aggregate == "count_distinct"

    def test_aggregate_without_error_bound(self):
        spec = _analyze("SELECT FCOUNT(*) FROM taipei WHERE class = 'car'")
        assert isinstance(spec, AggregateQuerySpec)
        assert spec.error_tolerance is None

    def test_default_confidence_is_95(self):
        spec = _analyze("SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1")
        assert spec.confidence == pytest.approx(0.95)


class TestScrubbingClassification:
    def test_single_class(self):
        spec = _analyze(scrubbing_query("taipei", "car", 6, limit=10, gap=300))
        assert isinstance(spec, ScrubbingQuerySpec)
        assert spec.min_counts == {"car": 6}
        assert spec.limit == 10
        assert spec.gap == 300

    def test_multi_class(self):
        spec = _analyze(multiclass_scrubbing_query("taipei", {"bus": 1, "car": 5}))
        assert isinstance(spec, ScrubbingQuerySpec)
        assert spec.min_counts == {"bus": 1, "car": 5}

    def test_strict_greater_than_bumps_threshold(self):
        spec = _analyze(
            "SELECT timestamp FROM v GROUP BY timestamp HAVING SUM(class='car') > 3 LIMIT 5"
        )
        assert spec.min_counts == {"car": 4}

    def test_default_limit_is_ten(self):
        spec = _analyze(
            "SELECT timestamp FROM v GROUP BY timestamp HAVING SUM(class='car') >= 2"
        )
        assert spec.limit == 10

    def test_where_class_adds_presence_requirement(self):
        spec = _analyze(
            "SELECT timestamp FROM v WHERE class = 'bus' GROUP BY timestamp "
            "HAVING SUM(class='car') >= 5 LIMIT 3"
        )
        assert spec.min_counts == {"car": 5, "bus": 1}

    def test_bad_having_predicate_raises(self):
        with pytest.raises(FrameQLAnalysisError):
            _analyze(
                "SELECT timestamp FROM v GROUP BY timestamp "
                "HAVING redness(content) >= 3 LIMIT 5"
            )


class TestSelectionClassification:
    def test_red_bus_query(self):
        spec = _analyze(red_bus_selection_query())
        assert isinstance(spec, SelectionQuerySpec)
        assert spec.object_class == "bus"
        assert spec.min_area == pytest.approx(100000)
        assert spec.min_track_frames == 16  # COUNT(*) > 15
        assert len(spec.udf_predicates) == 1
        assert spec.udf_predicates[0].udf_name == "redness"
        assert spec.select_star

    def test_class_only_selection(self):
        spec = _analyze("SELECT timestamp FROM v WHERE class = 'car'")
        assert isinstance(spec, SelectionQuerySpec)
        assert spec.object_class == "car"
        assert spec.select_columns == ["timestamp"]

    def test_fnr_fpr_captured(self):
        spec = _analyze(
            "SELECT timestamp FROM v WHERE class = 'car' FNR WITHIN 0.01 FPR WITHIN 0.02"
        )
        assert isinstance(spec, SelectionQuerySpec)
        assert spec.fnr_within == pytest.approx(0.01)
        assert spec.fpr_within == pytest.approx(0.02)

    def test_spatial_constraint(self):
        spec = _analyze("SELECT * FROM v WHERE class = 'car' AND xmax(mask) < 720")
        assert len(spec.spatial_constraints) == 1
        assert spec.spatial_constraints[0].axis == "xmax"
        assert spec.spatial_constraints[0].value == pytest.approx(720)

    def test_time_range(self):
        spec = _analyze(
            "SELECT * FROM v WHERE class = 'car' AND timestamp >= 60 AND timestamp < 120"
        )
        assert spec.time_range == (60.0, 120.0)

    def test_udf_equality_predicate(self):
        spec = _analyze(
            "SELECT * FROM v WHERE class = 'car' AND classify(content) = 'sedan'"
        )
        predicate = spec.udf_predicates[0]
        assert predicate.udf_name == "classify"
        assert predicate.op == "="
        assert predicate.value == "sedan"

    def test_flipped_comparison_normalised(self):
        spec = _analyze("SELECT * FROM v WHERE class = 'car' AND 17.5 <= redness(content)")
        predicate = spec.udf_predicates[0]
        assert predicate.op == ">="
        assert predicate.value == pytest.approx(17.5)


class TestExactFallbackAndErrors:
    def test_select_star_no_predicates_is_exact(self):
        spec = _analyze("SELECT * FROM v")
        assert isinstance(spec, ExactQuerySpec)
        assert spec.kind == QueryKind.EXACT

    def test_unknown_column_raises(self):
        with pytest.raises(FrameQLAnalysisError):
            _analyze("SELECT speed FROM v WHERE class = 'car'")

    def test_or_in_where_rejected(self):
        with pytest.raises(FrameQLAnalysisError):
            _analyze("SELECT * FROM v WHERE class = 'car' OR class = 'bus'")

    def test_unsupported_timestamp_operator(self):
        with pytest.raises(FrameQLAnalysisError):
            _analyze("SELECT * FROM v WHERE class='car' AND timestamp != 5")

    def test_udf_with_two_args_rejected(self):
        with pytest.raises(FrameQLAnalysisError):
            _analyze("SELECT * FROM v WHERE class='car' AND dist(mask, content) > 5")


class TestAccuracyClauseOfAnotherClass:
    """A clause no plan of the query's class reads is refused, not dropped."""

    @pytest.mark.parametrize(
        "text, clause, kind",
        [
            ("SELECT * FROM v WHERE class='boat' ERROR WITHIN 0.1", "ERROR WITHIN", "selection"),
            (
                "SELECT * FROM v WHERE class='boat' AT CONFIDENCE 95%",
                "AT CONFIDENCE",
                "selection",
            ),
            (
                "SELECT timestamp FROM v GROUP BY timestamp "
                "HAVING SUM(class='bus') >= 1 LIMIT 5 ERROR WITHIN 0.1",
                "ERROR WITHIN",
                "scrubbing",
            ),
            (
                "SELECT timestamp FROM v GROUP BY timestamp "
                "HAVING SUM(class='bus') >= 1 LIMIT 5 FNR WITHIN 0.01",
                "FNR WITHIN",
                "scrubbing",
            ),
            (
                "SELECT FCOUNT(*) FROM v WHERE class='car' ERROR WITHIN 0.1 FNR WITHIN 0.01",
                "FNR WITHIN",
                "aggregate",
            ),
            (
                "SELECT FCOUNT(*) FROM v WHERE class='car' FPR WITHIN 0.01",
                "FPR WITHIN",
                "aggregate",
            ),
            ("SELECT * FROM v ERROR WITHIN 0.1", "ERROR WITHIN", "exact"),
        ],
    )
    def test_refused_with_clause_and_class_named(self, text, clause, kind):
        with pytest.raises(FrameQLAnalysisError) as refused:
            _analyze(text)
        assert clause in str(refused.value)
        assert f"not to {kind} queries" in str(refused.value)

    def test_own_clauses_still_accepted(self):
        aggregate = _analyze(
            "SELECT FCOUNT(*) FROM v WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 90%"
        )
        assert aggregate.error_tolerance == pytest.approx(0.1)
        assert aggregate.confidence == pytest.approx(0.9)
        selection = _analyze(
            "SELECT * FROM v WHERE class='car' FNR WITHIN 0.01 FPR WITHIN 0.02"
        )
        assert (selection.fnr_within, selection.fpr_within) == (0.01, 0.02)
