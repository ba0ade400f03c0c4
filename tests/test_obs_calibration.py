"""The optimizer calibration report (``python -m repro.obs calibration``)."""

from __future__ import annotations

import pytest

from repro.obs.calibration import (
    CALIBRATION_QUERIES,
    DEFAULT_FRAMES,
    calibration_report,
    render_report,
)

#: The operators whose detector calls a sampling plan estimates.
SAMPLING_OPERATORS = {"RandomSampler", "ControlVariateSampler"}


@pytest.fixture(scope="module")
def report():
    return calibration_report()


def test_report_keys_and_summary(report):
    assert set(report) == {"frames", "queries", "rows", "worst_relative_error"}
    assert report["frames"] == DEFAULT_FRAMES
    assert report["queries"] == len(CALIBRATION_QUERIES)
    assert report["worst_relative_error"] == max(
        abs(row["relative_error"]) for row in report["rows"]
    )
    for row in report["rows"]:
        assert set(row) == {
            "kind",
            "operator",
            "estimated_detector_calls",
            "actual_detector_calls",
            "relative_error",
        }


def test_a_sampling_plan_is_calibrated(report):
    """The workload has an ``ERROR WITHIN`` aggregate, so a sampling
    operator's estimate meets its actual detector calls."""
    sampled = [
        row
        for row in report["rows"]
        if row["kind"] == "aggregate" and row["operator"] in SAMPLING_OPERATORS
    ]
    assert sampled
    for row in sampled:
        assert 0 < row["actual_detector_calls"] <= DEFAULT_FRAMES


def test_render_report_has_one_line_per_row(report):
    lines = render_report(report).splitlines()
    assert lines[0] == (
        f"optimizer calibration over {report['queries']} queries "
        f"({report['frames']} frames)"
    )
    assert lines[1].split() == ["kind", "operator", "estimated", "actual", "error"]
    body = lines[2:-1]
    assert len(body) == len(report["rows"])
    for line, row in zip(body, report["rows"], strict=True):
        assert line.split()[:4] == [
            row["kind"],
            row["operator"],
            str(row["estimated_detector_calls"]),
            str(row["actual_detector_calls"]),
        ]
    assert lines[-1] == (
        f"worst relative error: {report['worst_relative_error']:.2f}"
    )
