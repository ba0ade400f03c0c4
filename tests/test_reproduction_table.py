"""The guards of the paper's table, on small synthetic rows.

``benchmarks/test_reproduction.py`` regenerates every figure (about 25 s) and
holds it to ``benchmarks/REPRODUCTION.json``.  These tests run nothing: they
check that the comparison and the shape checks it relies on would catch a
fault.  A planted change to one field of one committed row must be reported
by figure, row and field; a planted violation of each check must fail that
check, named by its message.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from benchmarks.reproduction import FIGURES, differences, dump

TABLE = Path(__file__).resolve().parents[1] / "benchmarks" / "REPRODUCTION.json"


@pytest.fixture(scope="module")
def committed() -> dict[str, list[dict]]:
    return json.loads(TABLE.read_text())


def test_committed_rows_pass_every_check(committed):
    assert list(committed) == list(FIGURES)
    for name, figure in FIGURES.items():
        figure.check(committed[name])


def test_dump_round_trips_the_committed_table(committed):
    assert json.loads(dump(committed)) == committed
    assert dump(committed) == TABLE.read_text()


@pytest.mark.parametrize("name", FIGURES)
def test_planted_change_to_a_committed_row_is_named(committed, name):
    index = len(committed[name]) // 2
    row = committed[name][index]
    field = [key for key, value in row.items() if isinstance(value, int | float)][-1]
    planted = copy.deepcopy(committed)
    planted[name][index][field] += 1
    lines = differences(committed, planted)
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"{name} row {index} ")
    assert f") {field}: committed {row[field]!r}, regenerated " in lines[0]


def test_missing_rows_and_figures_are_named():
    table = {"a": [{"x": 1}, {"x": 2}], "b": [{"y": "z"}]}
    assert differences(table, {"a": [{"x": 1}]}) == [
        "a: 2 rows committed, 1 regenerated",
        "b: not regenerated",
    ]
    assert differences({"a": [{"x": 1}]}, {"a": [{"x": 1, "w": 0}]}) == [
        "a row 0 () w: committed '<absent>', regenerated 0"
    ]


# -- each check fails on a planted fault -------------------------------------------


def _rows(common: dict, *rows: dict) -> list[dict]:
    return [{**common, **row} for row in rows]


#: Per figure, rows that pass every check: only the fields the checks read.
SYNTHETIC = {
    "fig4": _rows(
        {"video": "v"},
        {"variant": "Naive", "runtime_s": 100.0, "abs_error": 0.0},
        {"variant": "NoScope (oracle)", "runtime_s": 50.0, "abs_error": 0.0},
        {"variant": "AQP (naive)", "runtime_s": 20.0, "abs_error": 0.05},
        {"variant": "BlazeIt", "runtime_s": 5.0, "abs_error": 0.05},
        {"variant": "BlazeIt (no train)", "runtime_s": 4.0, "abs_error": 0.05},
    ),
    "fig5": _rows(
        {"video": "v", "correlation": 0.8, "reduction": 2.0},
        {"error": 0.01, "naive_samples": 1000.0, "cv_samples": 500.0},
        {"error": 0.1, "naive_samples": 100.0, "cv_samples": 50.0},
    ),
    "fig6": _rows(
        {"video": "v", "instances": 30, "found": 10},
        {"variant": "Naive", "detector_calls": 1000, "runtime_s": 300.0},
        {"variant": "NoScope (oracle)", "detector_calls": 200, "runtime_s": 60.0},
        {"variant": "BlazeIt", "detector_calls": 100, "runtime_s": 40.0},
        {"variant": "BlazeIt (indexed)", "detector_calls": 100, "runtime_s": 30.0},
    ),
    "fig7": [
        {"min_cars": 1, "naive_calls": 100, "blazeit_calls": 10},
        {"min_cars": 2, "naive_calls": 200, "blazeit_calls": 50},
        {"min_cars": 3, "naive_calls": 500, "blazeit_calls": 100},
    ],
    "fig8": _rows(
        {"instances": 59, "found": 10},
        {"variant": "Naive", "detector_calls": 600, "runtime_s": 200.0},
        {"variant": "NoScope (oracle)", "detector_calls": 75, "runtime_s": 25.0},
        {"variant": "BlazeIt", "detector_calls": 66, "runtime_s": 37.0},
        {"variant": "BlazeIt (indexed)", "detector_calls": 66, "runtime_s": 22.0},
    ),
    "fig9": _rows(
        {"naive_calls": 600, "noscope_calls": 70},
        {"requested": 1, "blazeit_calls": 2},
        {"requested": 5, "blazeit_calls": 11},
    ),
    "fig10": [
        {"variant": "Naive", "runtime_s": 2000.0, "event_fnr": 0.0},
        {"variant": "NoScope (oracle)", "runtime_s": 173.0, "event_fnr": 0.0},
        {"variant": "BlazeIt", "runtime_s": 74.0, "event_fnr": 0.2},
    ],
    "fig11": [
        *_rows(
            {"study": "factor"},
            {"configuration": "Naive", "runtime_s": 2000.0},
            {"configuration": "+Spatial", "runtime_s": 1500.0},
            {"configuration": "+Temporal", "runtime_s": 200.0},
            {"configuration": "+Content", "runtime_s": 8.0},
            {"configuration": "+Label", "runtime_s": 3.0},
        ),
        *_rows(
            {"study": "lesion"},
            {"configuration": "Combined", "runtime_s": 3.0},
            {"configuration": "-Spatial", "runtime_s": 4.0},
            {"configuration": "-Temporal", "runtime_s": 17.0},
            {"configuration": "-Content", "runtime_s": 12.0},
            {"configuration": "-Label", "runtime_s": 7.5},
        ),
    ],
    "table3": [
        {"video": "rialto", "class": "boat", "occupancy": 0.78},
        {"video": "night-street", "class": "car", "occupancy": 0.26},
        {"video": "taipei", "class": "bus", "occupancy": 0.09},
        {"video": "taipei", "class": "car", "occupancy": 0.61},
    ],
    "table4": [
        {"video": "a", "mean_abs_error": 0.05},
        {"video": "b", "mean_abs_error": 0.05},
        {"video": "c", "mean_abs_error": 0.15},
    ],
    "table5": [
        {"video": "a", "pred_day1": 1.0, "actual_day1": 1.0, "pred_day2": 1.2, "actual_day2": 1.2},
        {"video": "b", "pred_day1": 0.1, "actual_day1": 0.1, "pred_day2": 0.2, "actual_day2": 0.2},
    ],
    "ablation_cv": [
        {"strategy": "no control variate", "samples": 4200.0},
        {"strategy": "fixed c = -1", "samples": 2257.0},
        {"strategy": "estimated optimal c", "samples": 2187.0},
    ],
    "ablation_capacity": [
        {"model": "softmax", "mean_error": 0.03, "correlation": 0.77},
        {"model": "mlp", "mean_error": 0.11, "correlation": 0.64},
    ],
    "ablation_scrub_signal": [
        {"signal": "per-class heads (paper)", "limit": 10, "found": 10, "detector_calls": 21},
        {"signal": "joint binary classifier", "limit": 10, "found": 10, "detector_calls": 426},
    ],
    "optimizer": [
        {"query_class": kind, "variant": variant, "detector_calls": calls}
        for kind, variant, calls in [
            ("aggregate", "cost-chosen", 0),
            ("aggregate", "forced:exact", 6000),
            ("aggregate", "forced:naive_aqp", 60),
            ("aggregate", "forced:specialized_rewrite", 0),
            ("aggregate", "forced:control_variates", 60),
            ("scrubbing", "cost-chosen", 247),
            ("scrubbing", "forced:exhaustive", 5778),
            ("selection", "cost-chosen", 513),
            ("selection", "forced:exhaustive", 6000),
            ("exact", "cost-chosen", 6000),
            ("exact", "forced:exhaustive", 6000),
        ]
    ],
    "streaming": _rows(
        {"video": "v"},
        {"variant": "full LIMIT 10", "detector_calls": 438, "runtime_s": 153.0, "found": 10},
        {"variant": "first hit (limit=1)", "detector_calls": 429, "runtime_s": 150.0, "found": 1},
        {"variant": "streamed first event", "found": 1},
    ),
}


def _set(index: int, **fields):
    return lambda rows: rows[index].update(fields)


def _set_all(**fields):
    return lambda rows: [row.update(fields) for row in rows]


#: (figure, planted fault, the message of the check it must fail).  The
#: optimizer's "every alternative on 3 of 4 classes" check is implied by its
#: first check while only the aggregate has a gate-bypassing alternative, so
#: no row set violates it alone.
FAULTS = [
    ("fig4", _set(3, runtime_s=10.0), "v: BlazeIt not 10x faster than Naive"),
    ("fig4", _set(4, runtime_s=6.0), "v: no-train slower than BlazeIt"),
    ("fig4", _set(3, abs_error=0.31), "v: BlazeIt error"),
    ("fig4", _set(2, abs_error=0.31), "v: AQP error"),
    ("fig5", _set(1, cv_samples=111.0), "v error 0.1: control variates cost more samples"),
    ("fig5", _set(1, naive_samples=2000.0), "the tightest error needs fewer samples"),
    ("fig5", _set(0, reduction=1.05), "v: no reduction at the tightest error"),
    ("fig6", _set(0, found=9), "v: the naive scan missed the limit"),
    ("fig6", _set(2, found=9), "v: BlazeIt missed the limit"),
    ("fig6", _set(2, detector_calls=1000), "no fewer detector calls than the naive scan"),
    ("fig6", _set(2, detector_calls=401), "v: BlazeIt not competitive with the presence oracle"),
    ("fig6", _set(3, runtime_s=41.0), "v: the indexed variant is slower than BlazeIt"),
    ("fig7", lambda rows: rows.pop(), "expected the taipei test day to reach at least 3"),
    ("fig7", _set(2, naive_calls=50, blazeit_calls=40), "naive cost falls as events get rarer"),
    ("fig7", _set(1, blazeit_calls=250), "N=2: BlazeIt above naive"),
    ("fig7", _set(2, blazeit_calls=500), "BlazeIt not below naive at the rarest N"),
    ("fig8", _set(2, detector_calls=80), "BlazeIt above the oracle"),
    ("fig8", _set(1, detector_calls=700), "the oracle above the naive scan"),
    ("fig8", _set(3, runtime_s=40.0), "indexed slower than BlazeIt"),
    ("fig8", _set(2, found=9), "BlazeIt missed the limit"),
    ("fig9", lambda rows: rows.clear(), "the taipei test day has no joint bus/car events"),
    ("fig9", _set(0, blazeit_calls=71), "limit 1: BlazeIt above the oracle"),
    ("fig9", _set(0, noscope_calls=601), "limit 1: the oracle above naive"),
    ("fig9", _set_all(blazeit_calls=70), "nowhere an order of magnitude below"),
    ("fig10", _set(1, runtime_s=2000.0), "the oracle is no faster than Naive"),
    ("fig10", _set(2, runtime_s=180.0), "BlazeIt is no faster than the oracle"),
    ("fig10", lambda rows: (_set(1, runtime_s=250.0)(rows), _set(2, runtime_s=210.0)(rows)),
     "BlazeIt is not 10x faster than Naive"),
    ("fig10", _set(2, event_fnr=0.6), "BlazeIt misses more than half the events"),
    ("fig11", _set(2, runtime_s=1600.0), "+Temporal hurts"),
    ("fig11", lambda rows: [row.update(runtime_s=2000.0) for row in rows[:5]],
     "the full stack is not 5x faster"),
    ("fig11", _set(6, runtime_s=2.8), "-Spatial speeds the plan up"),
    ("fig11", lambda rows: [row.update(runtime_s=3.0) for row in rows[5:]],
     "no lesion slows the combined plan down"),
    ("table3", _set(0, occupancy=0.2), "rialto not denser"),
    ("table3", _set(2, occupancy=0.7), "taipei buses not sparser"),
    ("table4", _set(0, mean_abs_error=0.21), "a: twice the bound"),
    ("table4", _set(0, mean_abs_error=0.15), "more than one video misses the bound"),
    ("table5", _set(0, pred_day1=0.5), "a: day 1 off"),
    ("table5", _set(0, pred_day2=1.6), "a: day 2 off"),
    ("table5", lambda rows: (_set(0, pred_day2=0.9)(rows), _set(1, pred_day2=0.05)(rows)),
     "predictions do not follow the days"),
    ("ablation_cv", _set(2, samples=4500.0), "needs more samples than none"),
    ("ablation_cv", _set(2, samples=2400.0), "needs more samples than c = -1"),
    ("ablation_capacity", _set(1, mean_error=0.3), "mlp: mean count off"),
    ("ablation_capacity", _set(0, correlation=0.3), "softmax: uncorrelated with the detector"),
    ("ablation_scrub_signal", _set(0, found=9), "the per-class heads miss the limit"),
    ("ablation_scrub_signal", _set(0, detector_calls=900),
     "the per-class heads are not competitive"),
    ("optimizer", _set(0, detector_calls=100), "aggregate: chosen plan used 100 detector calls"),
    ("streaming", _set(1, found=2), "v: the first-hit run did not stop at one hit"),
    ("streaming", _set(1, detector_calls=438), "v: first hit costs the full scrub"),
    ("streaming", _set(1, runtime_s=154.0), "v: first hit slower than the full scrub"),
    ("streaming", _set(2, found=0), "v: the stream emitted no hit"),
]


@pytest.mark.parametrize("name", FIGURES)
def test_synthetic_rows_pass_their_checks(name):
    FIGURES[name].check(copy.deepcopy(SYNTHETIC[name]))


def test_every_figure_has_a_planted_fault():
    assert {name for name, _, _ in FAULTS} == set(FIGURES)


@pytest.mark.parametrize(
    ("name", "plant", "message"),
    FAULTS,
    ids=[f"{name}-{message}" for name, _, message in FAULTS],
)
def test_planted_fault_fails_its_check(name, plant, message):
    rows = copy.deepcopy(SYNTHETIC[name])
    plant(rows)
    with pytest.raises(AssertionError, match=re.escape(message)):
        FIGURES[name].check(rows)
