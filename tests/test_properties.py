"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqp.estimators import (
    clt_half_width,
    epsilon_net_minimum_samples,
    optimal_coefficient,
)
from repro.aqp.control_variates import control_variate_estimate
from repro.aqp.sampling import adaptive_sample
from repro.frameql.lexer import tokenize
from repro.frameql.parser import parse
from repro.metrics.runtime import OperatorCost, RuntimeLedger
from repro.specialization.calibration import calibrate_no_false_negative_threshold
from repro.video.geometry import BoundingBox


# -- geometry -----------------------------------------------------------------------

box_strategy = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.floats(-1000, 1000, allow_nan=False),
    st.floats(-1000, 1000, allow_nan=False),
    st.floats(0, 500, allow_nan=False),
    st.floats(0, 500, allow_nan=False),
)


class TestGeometryProperties:
    @given(box_strategy, box_strategy)
    def test_iou_symmetric_and_bounded(self, a, b):
        iou_ab = a.iou(b)
        iou_ba = b.iou(a)
        assert iou_ab == pytest.approx(iou_ba, abs=1e-9)
        assert 0.0 <= iou_ab <= 1.0 + 1e-9

    @given(box_strategy)
    def test_iou_with_self_is_one_or_degenerate(self, box):
        if box.area > 0:
            assert box.iou(box) == pytest.approx(1.0)
        else:
            assert box.iou(box) == 0.0

    @given(box_strategy, box_strategy)
    def test_intersection_no_larger_than_either_area(self, a, b):
        inter = a.intersection(b)
        assert inter <= a.area + 1e-9
        assert inter <= b.area + 1e-9

    @given(box_strategy, st.floats(-200, 200), st.floats(-200, 200))
    def test_translation_preserves_area_and_iou(self, box, dx, dy):
        moved = box.translate(dx, dy)
        assert moved.area == pytest.approx(box.area, rel=1e-9, abs=1e-6)

    @given(box_strategy, st.floats(0, 100))
    def test_expand_never_shrinks(self, box, margin):
        assert box.expand(margin).area >= box.area - 1e-9


# -- runtime ledger ----------------------------------------------------------------------------


class TestLedgerProperties:
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 50)), max_size=30))
    def test_total_equals_sum_of_breakdown(self, charges):
        ledger = RuntimeLedger()
        cost = {name: OperatorCost(name, 0.25) for name in "abc"}
        for name, count in charges:
            ledger.charge(cost[name], count)
        assert ledger.total_seconds == pytest.approx(sum(ledger.breakdown().values()))
        expected_calls = sum(count for _, count in charges)
        assert sum(ledger.calls.values()) == expected_calls


# -- FrameQL -----------------------------------------------------------------------------------


identifier = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s.upper()
    not in {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "LIMIT", "GAP",
        "ERROR", "WITHIN", "AT", "CONFIDENCE", "FPR", "FNR", "AND", "OR",
        "NOT", "AS", "DISTINCT",
    }
)


class TestFrameQLProperties:
    @given(
        identifier,
        st.sampled_from(["car", "bus", "boat", "person"]),
        st.floats(0.01, 0.5, allow_nan=False),
        st.sampled_from([0.9, 0.95, 0.99]),
    )
    def test_aggregate_query_round_trip(self, video, object_class, error, confidence):
        text = (
            f"SELECT FCOUNT(*) FROM {video} WHERE class = '{object_class}' "
            f"ERROR WITHIN {error} AT CONFIDENCE {confidence * 100:g}%"
        )
        query = parse(text)
        assert query.video == video
        assert query.error_within == pytest.approx(error)
        assert query.confidence == pytest.approx(confidence)
        # str() must itself re-parse to an equivalent query.
        reparsed = parse(str(query))
        assert reparsed.video == query.video
        assert reparsed.error_within == pytest.approx(query.error_within)

    @given(st.text(alphabet="SELECT*FROMWHERE ()=<>'0123456789abc", max_size=60))
    def test_parser_never_crashes_unexpectedly(self, text):
        """Arbitrary input either parses or raises the library's own error."""
        from repro.errors import BlazeItError

        try:
            parse(text)
        except BlazeItError:
            pass

    @given(st.text(max_size=60))
    def test_lexer_never_raises_foreign_exceptions(self, text):
        from repro.errors import BlazeItError

        try:
            tokenize(text)
        except BlazeItError:
            pass


# -- statistics -------------------------------------------------------------------------------------


class TestStatisticsProperties:
    @given(st.floats(0.1, 10.0), st.integers(2, 10_000), st.sampled_from([0.9, 0.95, 0.99]))
    def test_half_width_positive_and_decreasing_in_samples(self, std, n, confidence):
        wide = clt_half_width(std, n, confidence)
        narrower = clt_half_width(std, n * 4, confidence)
        assert wide >= 0
        assert narrower <= wide + 1e-12

    @given(st.floats(0.5, 20.0), st.floats(0.01, 1.0))
    def test_epsilon_net_min_samples_monotone(self, value_range, error):
        assert epsilon_net_minimum_samples(value_range, error) >= (
            epsilon_net_minimum_samples(value_range, error * 2)
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_adaptive_sampling_estimate_within_tolerance(self, seed):
        """The CLT stopping rule should hit its error bound for Poisson data."""
        rng = np.random.default_rng(seed)
        population = rng.poisson(1.0, size=5000).astype(float)
        result = adaptive_sample(
            sample_fn=lambda idx: population[idx],
            population_size=population.size,
            error_tolerance=0.15,
            confidence=0.95,
            value_range=float(population.max() + 1),
            rng=np.random.default_rng(seed + 1),
        )
        # A 95% bound can fail occasionally, but never wildly: allow 3x slack.
        assert abs(result.estimate - population.mean()) < 0.45

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_control_variate_coefficient_reduces_variance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.poisson(2.0, size=2000).astype(float)
        t = m + rng.normal(0, 0.5, size=2000)
        c = optimal_coefficient(m, t)
        adjusted = m + c * (t - t.mean())
        assert adjusted.var() <= m.var() + 1e-9

    @given(
        st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=300),
        st.floats(0.02, 8.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_plain_aqp_is_control_variates_with_zero_coefficient(
        self, auxiliary, error_tolerance, seed
    ):
        """Section 6.3's estimator is unbiased for any ``c``; at ``c = 0`` it is
        Section 6.1's, draw for draw, whatever the auxiliary variable holds."""
        size = len(auxiliary)
        population = np.random.default_rng(seed).poisson(2.0, size=size).astype(float)
        args = (error_tolerance, 0.95, float(population.max() + 1))
        plain = adaptive_sample(
            lambda idx: population[idx], size, *args, rng=np.random.default_rng(seed)
        )
        zero = control_variate_estimate(
            lambda idx: population[idx],
            np.asarray(auxiliary),
            *args,
            rng=np.random.default_rng(seed),
            fixed_coefficient=0.0,
        )
        assert zero.estimate == plain.estimate
        assert zero.half_width == plain.half_width
        assert zero.samples_used == plain.samples_used
        assert zero.rounds == plain.rounds
        np.testing.assert_array_equal(zero.sampled_indices, plain.sampled_indices)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=200),
        st.data(),
    )
    def test_calibration_never_has_false_negatives(self, scores, data):
        scores = np.asarray(scores)
        positives = np.asarray(
            data.draw(
                st.lists(st.booleans(), min_size=len(scores), max_size=len(scores))
            )
        )
        calibration = calibrate_no_false_negative_threshold(scores, positives)
        passed = scores >= calibration.threshold
        assert np.all(passed[positives])
        assert calibration.false_negatives == 0
