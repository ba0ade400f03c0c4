"""The sampling estimators and aggregate plans against a committed golden file.

``tests/data/aggregate_v1_golden.json`` was written by running this module as
a script at the commit *before* the two sampling loops became one and the
config-level strategy switch was deleted
(``PYTHONPATH=src python tests/test_aggregate_golden.py``), so it records what
the two hand-kept loops and the old plan selection produced.  It holds:

* ``estimators`` — for fixed seeds over one fixed synthetic population, the
  result fields (:data:`GOLDEN_FIELDS`) of ``adaptive_sample``,
  ``control_variate_estimate`` and ``control_variate_estimate(
  fixed_coefficient=-1.0)``, and the per-round ``(estimate, half_width,
  samples_used)`` sequence of both streams.
* ``engine`` — ``result_fingerprint`` of every aggregate candidate named by
  ``force_plan`` on ``tiny_engine``, at parallelism 1 and 4, plus one
  budget-capped sampling run.

Everything is compared bit for bit (JSON floats round-trip exactly).  Run as
a script, the module rewrites the file; while the estimators and the plans
are unchanged it writes the committed bytes again, so a change that claims
byte-identical results can be checked by regenerating.  A rewrite that
differs means results changed: say so in the PR.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.api.hints import QueryHints, StopConditions
from repro.aqp.control_variates import control_variate_estimate, control_variate_stream
from repro.aqp.sampling import adaptive_sample, adaptive_sample_stream
from repro.service.protocol import result_fingerprint

GOLDEN = Path(__file__).parent / "data" / "aggregate_v1_golden.json"

SEEDS = (0, 1, 2)
POPULATION_SIZE = 2000
ERROR_TOLERANCE = 0.1
CONFIDENCE = 0.95

QUERY = (
    "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' "
    "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
)
FORCED = ("auto", "exact", "naive_aqp", "specialized_rewrite", "control_variates")
PARALLELISM = (1, 4)


def population() -> tuple[np.ndarray, np.ndarray]:
    """Per-frame counts ``m`` and a correlated, noisy auxiliary ``t``."""
    rng = np.random.default_rng(20190801)
    m = rng.poisson(2.0, size=POPULATION_SIZE).astype(np.float64)
    t = 0.8 * m + rng.normal(0.0, 0.6, size=POPULATION_SIZE)
    return m, t


def _plain(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


#: The result fields the golden pins, per estimator: the fields each
#: estimator's own result class had when the golden was written.  One result
#: class serves both estimators now; its other fields are not pinned.
GOLDEN_FIELDS = {
    "adaptive_sample": (
        "converged", "estimate", "half_width", "rounds",
        "sampled_indices", "sampled_values", "samples_used",
    ),
    "control_variates": (
        "coefficient", "converged", "correlation", "estimate", "half_width",
        "plain_estimate", "rounds", "sampled_indices", "samples_used",
    ),
}


def _fields(result: Any, estimator: str) -> dict[str, Any]:
    return {name: _plain(getattr(result, name)) for name in GOLDEN_FIELDS[estimator]}


def _rounds(stream: Any) -> list[list[float]]:
    return [[r.estimate, r.half_width, r.samples_used] for r in stream]


def estimator_runs() -> dict[str, Any]:
    m, t = population()
    value_range = float(m.max() + 1)
    args = (ERROR_TOLERANCE, CONFIDENCE, value_range)

    def sample_fn(indices: np.ndarray) -> np.ndarray:
        return m[indices]

    def rng(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    runs: dict[str, Any] = {}
    for seed in SEEDS:
        runs[f"seed{seed}"] = {
            "adaptive_sample": _fields(
                adaptive_sample(sample_fn, POPULATION_SIZE, *args, rng=rng(seed)),
                "adaptive_sample",
            ),
            "adaptive_sample_rounds": _rounds(
                adaptive_sample_stream(sample_fn, POPULATION_SIZE, *args, rng=rng(seed))
            ),
            "control_variates": _fields(
                control_variate_estimate(sample_fn, t, *args, rng=rng(seed)),
                "control_variates",
            ),
            "control_variates_rounds": _rounds(
                control_variate_stream(sample_fn, t, *args, rng=rng(seed))
            ),
            "control_variates_fixed": _fields(
                control_variate_estimate(
                    sample_fn, t, *args, rng=rng(seed), fixed_coefficient=-1.0
                ),
                "control_variates",
            ),
        }
    return runs


def _execute(engine: Any, hints: QueryHints, parallelism: int) -> str:
    with engine.session() as session:
        result = session.prepare(QUERY, hints=hints).execute(
            rng=np.random.default_rng(42), parallelism=parallelism
        )
    return result_fingerprint(result)


def engine_runs(engine: Any) -> dict[str, str]:
    runs = {
        f"{forced}_p{parallelism}": _execute(
            engine, QueryHints(force_plan=forced), parallelism
        )
        for forced in FORCED
        for parallelism in PARALLELISM
    }
    # The detector budget reaches the loop as its sample cap.
    runs["naive_aqp_budget_p1"] = _execute(
        engine,
        QueryHints(
            force_plan="naive_aqp",
            stop_conditions=StopConditions(max_detector_calls=70),
        ),
        1,
    )
    return runs


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_estimators_reproduce_the_golden_runs(golden):
    runs = json.loads(json.dumps(estimator_runs()))
    assert runs.keys() == golden["estimators"].keys()
    for seed, expected in golden["estimators"].items():
        assert runs[seed].keys() == expected.keys(), seed
        for name, payload in expected.items():
            assert runs[seed][name] == payload, (seed, name)


def test_golden_runs_take_more_than_one_round(golden):
    for seed, expected in golden["estimators"].items():
        assert len(expected["adaptive_sample_rounds"]) > 1, seed
        assert len(expected["control_variates_rounds"]) > 1, seed
        assert expected["control_variates"]["samples_used"] < (
            expected["adaptive_sample"]["samples_used"]
        ), seed


def test_forced_plans_reproduce_the_golden_fingerprints(golden, tiny_engine):
    assert engine_runs(tiny_engine) == golden["engine"]


def _script_engine() -> Any:
    """``conftest.tiny_engine`` without pytest (script mode only)."""
    from conftest import make_video_spec
    from repro.core.config import BlazeItConfig
    from repro.core.engine import BlazeIt
    from repro.detection.simulated import SimulatedDetector
    from repro.specialization.trainer import TrainingConfig
    from repro.video.synthetic import SyntheticVideo

    config = BlazeItConfig(
        training=TrainingConfig(epochs=3, batch_size=32, min_examples=16),
        min_training_positives=20,
        seed=3,
    )
    engine = BlazeIt(detector=SimulatedDetector.mask_rcnn(), config=config)
    engine.register_video(
        "tiny",
        test_video=SyntheticVideo.generate(make_video_spec()),
        train_video=SyntheticVideo.generate(make_video_spec(name="tiny-train", seed=8)),
        heldout_video=SyntheticVideo.generate(
            make_video_spec(name="tiny-heldout", seed=9)
        ),
    )
    engine.record_test_day("tiny")
    return engine


if __name__ == "__main__":
    document = {"estimators": estimator_runs(), "engine": engine_runs(_script_engine())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
