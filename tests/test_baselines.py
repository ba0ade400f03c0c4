"""Tests for the baseline strategies used in the evaluation comparisons."""

import pytest

from repro.baselines.aggregates import (
    naive_aggregate,
    naive_aqp_aggregate,
    noscope_oracle_aggregate,
)
from repro.baselines.scrubbing import (
    naive_scrub,
    noscope_oracle_scrub_baseline,
)
from repro.baselines.selection import naive_selection, noscope_oracle_selection
from repro.frameql.analyzer import analyze
from repro.frameql.parser import parse
from repro.udf.registry import default_udf_registry


class TestAggregateBaselines:
    def test_naive_is_exact_and_expensive(self, tiny_recorded):
        result = naive_aggregate(tiny_recorded, "car")
        assert result.value == pytest.approx(tiny_recorded.mean_count("car"))
        assert result.detection_calls == tiny_recorded.num_frames

    def test_noscope_oracle_cheaper_and_exact(self, tiny_recorded):
        naive = naive_aggregate(tiny_recorded, "car")
        oracle = noscope_oracle_aggregate(tiny_recorded, "car")
        assert oracle.value == pytest.approx(naive.value)
        assert oracle.detection_calls <= naive.detection_calls
        assert oracle.runtime_seconds <= naive.runtime_seconds

    def test_noscope_oracle_cost_tracks_occupancy(self, tiny_recorded):
        oracle = noscope_oracle_aggregate(tiny_recorded, "car")
        occupied = int((tiny_recorded.counts("car") > 0).sum())
        assert oracle.detection_calls == occupied

    def test_naive_aqp_accurate_and_cheaper(self, tiny_recorded, rng):
        naive = naive_aggregate(tiny_recorded, "car")
        aqp = naive_aqp_aggregate(
            tiny_recorded, "car", error_tolerance=0.2, rng=rng
        )
        assert abs(aqp.value - naive.value) < 0.4
        assert aqp.detection_calls < naive.detection_calls

    def test_unknown_class_counts_zero(self, tiny_recorded):
        assert naive_aggregate(tiny_recorded, "zebra").value == 0.0


class TestScrubbingBaselines:
    def test_naive_finds_only_true_positives(self, tiny_recorded):
        result = naive_scrub(tiny_recorded, {"car": 1}, limit=3)
        counts = tiny_recorded.counts("car")
        assert all(counts[f] >= 1 for f in result.frames)

    def test_noscope_oracle_never_slower_than_naive(self, tiny_recorded):
        min_counts = {"car": 2}
        naive = naive_scrub(tiny_recorded, min_counts, limit=3)
        oracle = noscope_oracle_scrub_baseline(tiny_recorded, min_counts, limit=3)
        assert set(oracle.frames) <= set(tiny_recorded.frames_satisfying(min_counts).tolist())
        assert oracle.detection_calls <= naive.detection_calls

    def test_impossible_event_scans_everything(self, tiny_recorded):
        result = naive_scrub(tiny_recorded, {"car": 99}, limit=1)
        assert result.frames == []
        assert result.detection_calls == tiny_recorded.num_frames

    def test_runtime_proportional_to_detection_calls(self, tiny_recorded, detector):
        result = naive_scrub(tiny_recorded, {"car": 2}, limit=2)
        assert result.runtime_seconds == pytest.approx(
            result.detection_calls * detector.cost.seconds_per_call
        )


class TestSelectionBaselines:
    def _spec(self):
        return analyze(
            parse("SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5")
        )

    def test_naive_scans_every_frame(self, tiny_recorded):
        result = naive_selection(tiny_recorded, self._spec(), default_udf_registry())
        assert result.detection_calls == tiny_recorded.num_frames

    def test_oracle_restricts_to_class_frames(self, tiny_recorded):
        naive = naive_selection(tiny_recorded, self._spec(), default_udf_registry())
        oracle = noscope_oracle_selection(
            tiny_recorded, self._spec(), default_udf_registry()
        )
        assert oracle.detection_calls <= naive.detection_calls
        assert set(oracle.matched_frames) == set(naive.matched_frames)

    def test_matched_frames_contain_red_buses(self, tiny_recorded):
        result = naive_selection(tiny_recorded, self._spec(), default_udf_registry())
        for frame in result.matched_frames:
            detections = tiny_recorded.result(frame).detections
            assert any(
                d.object_class == "bus" and d.color_name == "red" for d in detections
            )
