"""The paper's evaluation (Section 10) as one table.

Every figure, table and ablation the reproduction regenerates is one entry of
:data:`FIGURES`: a runner that returns the figure's rows (one dict per row),
the shape checks those rows must pass, and the paper's headline the checks
stand for.  ``benchmarks/REPRODUCTION.json`` holds the rows the runners
produce; ``benchmarks/test_reproduction.py`` regenerates them, compares them
exactly to that file and runs every check.

Every entry runs on one fixed scale: :data:`FRAMES` frames per split (train /
held-out / test, about 3.3 minutes of 30 fps video) of the six synthetic
scenarios, with the detector Table 3 assigns to each video.  Scenario setup —
generating the three days, running the simulated detector over the training
and held-out days (the labeled set) and over the test day (the recording used
to extrapolate detection cost, as the paper does) — happens once per scenario
per process.  Runtimes are simulated seconds from the runtime ledger: only
relative speedups are meaningful, and every row is a pure function of the
code and the fixed seeds.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api import QueryHints, ScrubbingHit, StopConditions
from repro.api.session import QuerySession
from repro.aqp.control_variates import control_variate_estimate
from repro.aqp.sampling import adaptive_sample
from repro.baselines.aggregates import (
    naive_aggregate,
    naive_aqp_aggregate,
    noscope_oracle_aggregate,
)
from repro.baselines.scrubbing import naive_scrub, noscope_oracle_scrub_baseline
from repro.baselines.selection import naive_selection, noscope_oracle_selection
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.labeled_set import LabeledSet
from repro.core.recorded import RecordedDetections
from repro.detection.base import ObjectDetector
from repro.detection.simulated import SimulatedDetector
from repro.scrubbing.importance import importance_scrub
from repro.specialization.binary_model import BinaryPresenceModel
from repro.specialization.count_model import CountSpecializedModel
from repro.specialization.multiclass import MultiClassCountModel
from repro.specialization.trainer import TrainingConfig
from repro.video.scenarios import SCENARIOS, generate_scenario, get_scenario
from repro.video.synthetic import SyntheticVideo
from repro.workloads.queries import (
    SCRUBBING_QUERIES,
    aggregate_query,
    multiclass_scrubbing_query,
    red_bus_selection_query,
    scrubbing_query,
)

Row = dict[str, Any]

#: Frames generated per split for each scenario.
FRAMES = 6000

#: Detector used per video, following Table 3 (FGFA for taipei, Mask R-CNN
#: elsewhere; YOLOv2 was never selected by the paper).
DETECTOR_BY_VIDEO = {
    "taipei": ("fgfa", 0.2),
    "night-street": ("mask_rcnn", 0.8),
    "rialto": ("mask_rcnn", 0.8),
    "grand-canal": ("mask_rcnn", 0.8),
    "amsterdam": ("mask_rcnn", 0.8),
    "archie": ("mask_rcnn", 0.8),
}

#: The paper trains for one epoch over a large labeled set; the scaled-down
#: videos warrant a few more.
TRAINING = TrainingConfig(epochs=3, batch_size=16, min_examples=32)

ERROR_TOLERANCE = 0.1
CONFIDENCE = 0.95
LIMIT = 10


# -- the environment ---------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioBundle:
    """One scenario's test day, detector, labeled set and recorded test day."""

    name: str
    test: SyntheticVideo
    detector: ObjectDetector
    labeled_set: LabeledSet
    recorded: RecordedDetections

    @property
    def primary_class(self) -> str:
        """The object class the paper queries on this video."""
        return get_scenario(self.name).primary_class


@functools.cache
def scenario(name: str) -> ScenarioBundle:
    """Build (once per process) the bundle for one scenario."""
    kind, threshold = DETECTOR_BY_VIDEO[name]
    detector = (
        SimulatedDetector.fgfa(confidence_threshold=threshold)
        if kind == "fgfa"
        else SimulatedDetector.mask_rcnn(confidence_threshold=threshold)
    )
    train, heldout, test = (
        generate_scenario(name, split, FRAMES) for split in ("train", "heldout", "test")
    )
    return ScenarioBundle(
        name=name,
        test=test,
        detector=detector,
        labeled_set=LabeledSet.build(train, heldout, detector),
        recorded=RecordedDetections.build(test, detector),
    )


def config(**overrides: Any) -> BlazeItConfig:
    """The engine configuration: paper defaults and the MLP specialized model,
    the closest analogue of the paper's tiny ResNet."""
    params = {
        "training": TRAINING,
        "min_training_positives": 50,
        "specialized_model_type": "mlp",
        "seed": 0,
        **overrides,
    }
    return BlazeItConfig(**params)


def fresh_engine(bundle: ScenarioBundle, **overrides: Any) -> BlazeIt:
    """An engine over the bundle's data that reuses its labeled set and
    recording, so a configuration change does not re-run the detector."""
    engine = BlazeIt(detector=bundle.detector, config=config(**overrides))
    engine.register_video(bundle.name, test_video=bundle.test, build_labeled_set=False)
    engine.attach_labeled_set(bundle.name, bundle.labeled_set)
    engine.attach_recorded(bundle.name, bundle.recorded)
    return engine


def fresh_session(bundle: ScenarioBundle, **overrides: Any) -> QuerySession:
    """A query session over a fresh engine with the given configuration."""
    return fresh_engine(bundle, **overrides).session(video=bundle.name)


def _largest_threshold(counts: np.ndarray, minimum: int, where: Any = True) -> int:
    """The largest ``t >= 1`` with at least ``minimum`` frames where
    ``counts >= t`` (and ``where`` holds); 1 when there is none."""
    best = 1
    for threshold in range(1, int(counts.max(initial=1)) + 1):
        if int(((counts >= threshold) & where).sum()) < minimum:
            break
        best = threshold
    return best


def rare_event_threshold(
    bundle: ScenarioBundle, object_class: str, limit: int = LIMIT, target_instances: int = 20
) -> int:
    """The per-class count threshold of a Table 6 style rare event.

    The paper picks rare events "with at least 10 instances" on each 33-hour
    test day.  The scaled-down days are shorter, so the threshold is the
    largest count that still has ``max(limit, target_instances)`` matching
    frames: as rare as the data allows while remaining findable.
    """
    counts = bundle.recorded.counts(object_class)
    return _largest_threshold(counts, max(limit, target_instances))


def bus_and_car_threshold(bundle: ScenarioBundle, instances: int) -> int:
    """The largest car threshold keeping ``instances`` bus-and-car frames."""
    buses = bundle.recorded.counts("bus")
    return _largest_threshold(bundle.recorded.counts("car"), instances, buses >= 1)


def has_bus_and_cars(bundle: ScenarioBundle, car_threshold: int) -> Callable[[int], bool]:
    """Whether a test-day frame holds a bus and ``car_threshold`` cars."""
    cars = bundle.recorded.counts("car")
    buses = bundle.recorded.counts("bus")
    return lambda frame: bool(cars[frame] >= car_threshold and buses[frame] >= 1)


def speedup(baseline_seconds: float, seconds: float) -> float:
    """Speedup factor of ``seconds`` relative to ``baseline_seconds``."""
    return baseline_seconds / seconds if seconds > 0 else float("inf")


def _count_model(bundle: ScenarioBundle, object_class: str, **kwargs: Any) -> CountSpecializedModel:
    model = CountSpecializedModel(object_class, training_config=TRAINING, **kwargs)
    model.fit(bundle.labeled_set.train_features, bundle.labeled_set.train_counts(object_class))
    return model


def _bus_car_model(bundle: ScenarioBundle) -> MultiClassCountModel:
    model = MultiClassCountModel(["bus", "car"], training_config=TRAINING)
    model.fit(
        bundle.labeled_set.train_features,
        {cls: bundle.labeled_set.train_counts(cls) for cls in ("bus", "car")},
    )
    return model


def _test_features(video: SyntheticVideo) -> np.ndarray:
    return video.frame_features(np.arange(video.num_frames))


def _per(rows: Sequence[Row], key: str) -> dict[Any, list[Row]]:
    """Rows grouped by one field, in first-seen order."""
    groups: dict[Any, list[Row]] = {}
    for row in rows:
        groups.setdefault(row[key], []).append(row)
    return groups


def _by(rows: Sequence[Row], key: str) -> dict[Any, Row]:
    """Rows keyed by one field."""
    return {row[key]: row for row in rows}


# -- Figure 4: aggregate runtimes --------------------------------------------------

#: archie is left out of Figure 4: its specialized NN cannot hit the accuracy
#: target (it appears in Figure 5).
FIGURE4_VIDEOS = ["taipei", "night-street", "rialto", "grand-canal", "amsterdam"]


def fig4_rows() -> list[Row]:
    """Naive, NoScope oracle, naive AQP, BlazeIt and BlazeIt without training
    time, for the frame-averaged count of each video's primary class at error
    0.1 and 95% confidence."""
    rows = []
    for name in FIGURE4_VIDEOS:
        bundle = scenario(name)
        object_class = bundle.primary_class
        truth = bundle.recorded.mean_count(object_class)
        query = aggregate_query(name, object_class, ERROR_TOLERANCE, CONFIDENCE)
        naive = naive_aggregate(bundle.recorded, object_class)
        oracle = noscope_oracle_aggregate(bundle.recorded, object_class)
        aqp = naive_aqp_aggregate(
            bundle.recorded,
            object_class,
            error_tolerance=ERROR_TOLERANCE,
            confidence=CONFIDENCE,
            rng=np.random.default_rng(0),
        )
        blazeit = fresh_session(bundle, include_training_time=True).execute(query)
        no_train = fresh_session(bundle, include_training_time=False).execute(query)
        for variant, value, runtime, method in [
            ("Naive", naive.value, naive.runtime_seconds, "exact"),
            ("NoScope (oracle)", oracle.value, oracle.runtime_seconds, "oracle"),
            ("AQP (naive)", aqp.value, aqp.runtime_seconds, "sampling"),
            ("BlazeIt", blazeit.value, blazeit.runtime_seconds, blazeit.method),
            ("BlazeIt (no train)", no_train.value, no_train.runtime_seconds, no_train.method),
        ]:
            rows.append(
                {
                    "video": name,
                    "variant": variant,
                    "estimate": value,
                    "abs_error": abs(value - truth),
                    "runtime_s": runtime,
                    "speedup": speedup(naive.runtime_seconds, runtime),
                    "method": method,
                }
            )
    return rows


def fig4_checks(rows: Sequence[Row]) -> None:
    # The reproduction checks the ordering and a large gap rather than the
    # paper's absolute factors, and every estimate within the bound (with
    # slack for the statistical nature of the guarantee).
    for video, group in _per(rows, "video").items():
        by = _by(group, "variant")
        naive, blazeit = by["Naive"]["runtime_s"], by["BlazeIt"]["runtime_s"]
        no_train = by["BlazeIt (no train)"]["runtime_s"]
        assert blazeit < naive / 10, f"{video}: BlazeIt not 10x faster than Naive"
        assert no_train <= blazeit, f"{video}: no-train slower than BlazeIt"
        assert by["BlazeIt"]["abs_error"] <= 3 * ERROR_TOLERANCE, f"{video}: BlazeIt error"
        assert by["AQP (naive)"]["abs_error"] <= 3 * ERROR_TOLERANCE, f"{video}: AQP error"


# -- Figure 5: sample complexity with control variates -----------------------------

FIGURE5_VIDEOS = ["taipei", "night-street", "rialto", "grand-canal", "amsterdam", "archie"]
FIGURE5_ERRORS = [0.01, 0.02, 0.03, 0.04, 0.05, 0.1]
#: The paper averages 100 runs; 20 keep the figure fast.
FIGURE5_RUNS = 20


def fig5_rows() -> list[Row]:
    """Mean detector samples the adaptive loop needs per target error, with
    and without the specialized NN as a control variate."""
    return [row for name in FIGURE5_VIDEOS for row in _sample_complexity(name)]


def _sample_complexity(name: str) -> list[Row]:
    bundle = scenario(name)
    counts = bundle.recorded.counts(bundle.primary_class).astype(float)
    value_range = float(counts.max(initial=0) + 1)
    auxiliary = _count_model(bundle, bundle.primary_class).expected_counts(
        _test_features(bundle.test)
    )
    correlation = float(np.corrcoef(auxiliary, counts)[0, 1]) if counts.std() > 0 else 0.0
    rows = []
    for error in FIGURE5_ERRORS:
        naive_samples, cv_samples = [], []
        for run in range(FIGURE5_RUNS):
            naive = adaptive_sample(
                sample_fn=lambda idx: counts[idx],
                population_size=counts.size,
                error_tolerance=error,
                confidence=CONFIDENCE,
                value_range=value_range,
                rng=np.random.default_rng(run),
            )
            naive_samples.append(naive.samples_used)
            cv = control_variate_estimate(
                sample_fn=lambda idx: counts[idx],
                auxiliary_values=auxiliary,
                error_tolerance=error,
                confidence=CONFIDENCE,
                value_range=value_range,
                rng=np.random.default_rng(run),
            )
            cv_samples.append(cv.samples_used)
        naive_mean = float(np.mean(naive_samples))
        cv_mean = float(np.mean(cv_samples))
        rows.append(
            {
                "video": name,
                "error": error,
                "naive_samples": naive_mean,
                "cv_samples": cv_mean,
                "reduction": naive_mean / cv_mean if cv_mean else float("inf"),
                "correlation": correlation,
            }
        )
    return rows


def fig5_checks(rows: Sequence[Row]) -> None:
    for video, group in _per(rows, "video").items():
        for row in group:
            assert row["cv_samples"] <= row["naive_samples"] * 1.1, (
                f"{video} error {row['error']}: control variates cost more samples"
            )
        assert group[0]["naive_samples"] >= group[-1]["naive_samples"], (
            f"{video}: the tightest error needs fewer samples than the loosest"
        )
        # The variance reduction shows at the tightest error whenever the
        # specialized NN is reasonably correlated with the detector counts.
        if group[0]["correlation"] > 0.6:
            assert group[0]["reduction"] > 1.1, f"{video}: no reduction at the tightest error"


# -- Figure 6: scrubbing runtimes (LIMIT 10) ---------------------------------------

#: Videos where the synthetic features cannot represent the objects well
#: enough for the specialized ranking to beat the presence oracle (archie:
#: 0.3-second car appearances in a 4K frame).  For these only "BlazeIt beats
#: the naive scan" is checked.
WEAK_RANKING_VIDEOS = {"archie"}


def _scrub_rows(bundle: ScenarioBundle, min_counts: dict[str, int], query: str) -> list[Row]:
    """Naive scan, NoScope oracle, BlazeIt and BlazeIt from a built index."""
    instances = int(bundle.recorded.frames_satisfying(min_counts).size)
    naive = naive_scrub(bundle.recorded, min_counts, limit=LIMIT)
    oracle = noscope_oracle_scrub_baseline(bundle.recorded, min_counts, limit=LIMIT)
    blazeit = fresh_session(bundle).execute(query)
    indexed = fresh_session(bundle).execute(query, hints=QueryHints(scrubbing_indexed=True))
    predicate = " AND ".join(f"{cls}>={n}" for cls, n in min_counts.items())
    return [
        {
            "predicate": predicate,
            "instances": instances,
            "variant": variant,
            "runtime_s": result.runtime_seconds,
            "detector_calls": result.detection_calls,
            "found": len(result.frames),
            "speedup": speedup(naive.runtime_seconds, result.runtime_seconds),
        }
        for variant, result in [
            ("Naive", naive),
            ("NoScope (oracle)", oracle),
            ("BlazeIt", blazeit),
            ("BlazeIt (indexed)", indexed),
        ]
    ]


def fig6_rows() -> list[Row]:
    """Each video's Table 6 style rare event, LIMIT 10.  The thresholds keep
    the event rare on the scaled-down day but with at least 10 instances."""
    rows = []
    for name, spec in SCRUBBING_QUERIES.items():
        bundle = scenario(name)
        threshold = rare_event_threshold(bundle, spec.object_class)
        query = scrubbing_query(name, spec.object_class, threshold, limit=LIMIT, gap=0)
        for row in _scrub_rows(bundle, {spec.object_class: threshold}, query):
            rows.append({"video": name, **row})
    return rows


def fig6_checks(rows: Sequence[Row]) -> None:
    # Every variant returns only true positives, so a found count differs
    # only when a variant fails to reach the limit.  The scaled-down events
    # are far less rare than the paper's, so the margins are smaller.
    for video, group in _per(rows, "video").items():
        by = _by(group, "variant")
        naive, oracle, blazeit = by["Naive"], by["NoScope (oracle)"], by["BlazeIt"]
        target = min(LIMIT, naive["instances"])
        assert naive["found"] == target, f"{video}: the naive scan missed the limit"
        assert blazeit["found"] == target, f"{video}: BlazeIt missed the limit"
        assert blazeit["detector_calls"] < naive["detector_calls"], (
            f"{video}: BlazeIt needs no fewer detector calls than the naive scan"
        )
        if video not in WEAK_RANKING_VIDEOS:
            assert blazeit["detector_calls"] <= max(
                oracle["detector_calls"] * 2, naive["detector_calls"] / 3
            ), f"{video}: BlazeIt not competitive with the presence oracle"
        assert by["BlazeIt (indexed)"]["runtime_s"] <= blazeit["runtime_s"], (
            f"{video}: the indexed variant is slower than BlazeIt"
        )


# -- Figure 7: samples to find 10 frames with at least N cars (taipei) -------------


def fig7_rows() -> list[Row]:
    """Detector calls each strategy needs to find 10 frames with >= N cars."""
    bundle = scenario("taipei")
    counts = bundle.recorded.counts("car")
    model = _count_model(bundle, "car")
    features = _test_features(bundle.test)
    rows = []
    for n in range(1, int(counts.max(initial=1)) + 1):
        instances = int((counts >= n).sum())
        if instances == 0:
            break
        limit = min(LIMIT, instances)
        min_counts = {"car": n}
        naive = naive_scrub(bundle.recorded, min_counts, limit=limit)
        oracle = noscope_oracle_scrub_baseline(bundle.recorded, min_counts, limit=limit)
        blazeit = importance_scrub(
            model.prob_at_least(features, n),
            verify_fn=lambda frame, n=n: counts[frame] >= n,
            limit=limit,
        )
        rows.append(
            {
                "min_cars": n,
                "instances": instances,
                "naive_calls": naive.detection_calls,
                "noscope_calls": oracle.detection_calls,
                "blazeit_calls": blazeit.detection_calls,
            }
        )
    return rows


def fig7_checks(rows: Sequence[Row]) -> None:
    assert len(rows) >= 3, "expected the taipei test day to reach at least 3 simultaneous cars"
    assert rows[-1]["naive_calls"] >= rows[0]["naive_calls"], "naive cost falls as events get rarer"
    for row in rows[1:]:
        assert row["blazeit_calls"] <= row["naive_calls"], (
            f"N={row['min_cars']}: BlazeIt above naive"
        )
    assert rows[-1]["blazeit_calls"] < rows[-1]["naive_calls"], (
        "BlazeIt not below naive at the rarest N"
    )


# -- Figure 8: multi-class scrubbing (taipei) --------------------------------------


def fig8_rows() -> list[Row]:
    """At least one bus and at least N cars, LIMIT 10: N is the largest that
    keeps 10 joint instances on the scaled-down day."""
    bundle = scenario("taipei")
    min_counts = {"bus": 1, "car": bus_and_car_threshold(bundle, LIMIT)}
    query = multiclass_scrubbing_query("taipei", min_counts, limit=LIMIT, gap=0)
    return _scrub_rows(bundle, min_counts, query)


def fig8_checks(rows: Sequence[Row]) -> None:
    # The selective joint predicate favours the oracle, but BlazeIt still
    # needs no more detector calls than it.
    by = _by(rows, "variant")
    naive, oracle, blazeit = by["Naive"], by["NoScope (oracle)"], by["BlazeIt"]
    assert blazeit["detector_calls"] <= oracle["detector_calls"], "BlazeIt above the oracle"
    assert oracle["detector_calls"] <= naive["detector_calls"], "the oracle above the naive scan"
    assert by["BlazeIt (indexed)"]["runtime_s"] <= blazeit["runtime_s"], (
        "indexed slower than BlazeIt"
    )
    assert blazeit["found"] == min(LIMIT, blazeit["instances"]), "BlazeIt missed the limit"


# -- Figure 9: samples vs requested clips (taipei) ---------------------------------

REQUESTED_CLIPS = [1, 5, 10, 15, 20, 25, 30]


def fig9_rows() -> list[Row]:
    """Detector calls per strategy as the LIMIT of the bus-and-cars query grows."""
    bundle = scenario("taipei")
    car_threshold = bus_and_car_threshold(bundle, max(REQUESTED_CLIPS))
    min_counts = {"bus": 1, "car": car_threshold}
    instances = int(bundle.recorded.frames_satisfying(min_counts).size)
    scores = _bus_car_model(bundle).score_conjunction(_test_features(bundle.test), min_counts)
    verify = has_bus_and_cars(bundle, car_threshold)
    rows = []
    for limit in REQUESTED_CLIPS:
        effective = min(limit, instances)
        if effective == 0:
            continue
        naive = naive_scrub(bundle.recorded, min_counts, limit=effective)
        oracle = noscope_oracle_scrub_baseline(bundle.recorded, min_counts, limit=effective)
        rows.append(
            {
                "predicate": f"bus>=1 AND car>={car_threshold}",
                "requested": limit,
                "effective": effective,
                "naive_calls": naive.detection_calls,
                "noscope_calls": oracle.detection_calls,
                "blazeit_calls": importance_scrub(scores, verify, limit=effective).detection_calls,
            }
        )
    return rows


def fig9_checks(rows: Sequence[Row]) -> None:
    assert rows, "the taipei test day has no joint bus/car events"
    for row in rows:
        limit = row["requested"]
        assert row["blazeit_calls"] <= row["noscope_calls"], (
            f"limit {limit}: BlazeIt above the oracle"
        )
        assert row["noscope_calls"] <= row["naive_calls"], f"limit {limit}: the oracle above naive"
    assert max(row["naive_calls"] / max(row["blazeit_calls"], 1) for row in rows) > 10, (
        "BlazeIt is nowhere an order of magnitude below the naive scan"
    )


# -- Figure 10: content-based selection (taipei, red buses) ------------------------

#: 60,000 px instead of the paper's 100,000 px, adapted to the synthetic bus
#: sizes so the scaled-down day has matching events.
AREA_THRESHOLD = 60_000
#: Visible for at least 0.5 s at 30 fps.
MIN_FRAMES = 15


def group_events(frames: list[int], gap: int = 30) -> list[tuple[int, int]]:
    """Group matched frame indices into events (runs separated by > ``gap``)."""
    events: list[tuple[int, int]] = []
    for frame in sorted(frames):
        if events and frame - events[-1][1] <= gap:
            events[-1] = (events[-1][0], frame)
        else:
            events.append((frame, frame))
    return events


def event_false_negative_rate(
    found_frames: list[int], reference_frames: list[int], gap: int = 30
) -> float:
    """Fraction of reference events with no found frame nearby.

    A plan that subsamples in time still sees every object visible for >= K
    frames at least once, so accuracy is measured per event, not per frame.
    """
    events = group_events(reference_frames, gap)
    if not events:
        return 0.0
    missed = sum(
        1
        for start, end in events
        if not any(start - gap <= frame <= end + gap for frame in found_frames)
    )
    return missed / len(events)


def fig10_rows() -> list[Row]:
    """The Figure 3c query: Naive, NoScope oracle (frames with a bus) and
    BlazeIt's inferred temporal, content and label filters."""
    bundle = scenario("taipei")
    engine = fresh_engine(bundle)
    prepared = engine.session().prepare(
        red_bus_selection_query("taipei", min_area=AREA_THRESHOLD, min_frames=MIN_FRAMES)
    )
    naive = naive_selection(bundle.recorded, prepared.spec, engine.udf_registry)
    oracle = noscope_oracle_selection(bundle.recorded, prepared.spec, engine.udf_registry)
    blazeit = prepared.execute()
    rows = []
    for variant, result in [("Naive", naive), ("NoScope (oracle)", oracle), ("BlazeIt", blazeit)]:
        runtime = result.runtime_seconds
        rows.append(
            {
                "variant": variant,
                "runtime_s": runtime,
                "throughput_fps": speedup(bundle.test.num_frames, runtime),
                "detector_calls": result.detection_calls,
                "matched": len(result.matched_frames),
                "event_fnr": event_false_negative_rate(result.matched_frames, naive.matched_frames),
                "speedup": speedup(naive.runtime_seconds, runtime),
            }
        )
    rows[-1]["plan"] = blazeit.plan_description
    return rows


def fig10_checks(rows: Sequence[Row]) -> None:
    # Only false negatives are possible for these queries.
    by = _by(rows, "variant")
    naive, oracle, blazeit = (by[v]["runtime_s"] for v in ("Naive", "NoScope (oracle)", "BlazeIt"))
    assert oracle < naive, "the oracle is no faster than Naive"
    assert blazeit < oracle, "BlazeIt is no faster than the oracle"
    assert blazeit < naive / 10, "BlazeIt is not 10x faster than Naive"
    assert by["BlazeIt"]["event_fnr"] <= 0.5, "BlazeIt misses more than half the events"


# -- Figure 11: factor analysis and lesion study (taipei) --------------------------

#: Cumulative filter classes of the factor analysis, in the paper's order.
FACTOR_STEPS = [
    ("Naive", set()),
    ("+Spatial", {"spatial"}),
    ("+Temporal", {"spatial", "temporal"}),
    ("+Content", {"spatial", "temporal", "content"}),
    ("+Label", {"spatial", "temporal", "content", "label"}),
]
FILTER_CLASSES = ("spatial", "temporal", "content", "label")
LESIONS = tuple(f"-{removed.capitalize()}" for removed in FILTER_CLASSES)
#: The Figure 3c red-bus query plus a region of interest, so the spatial
#: filter class takes part, as the paper's ROI does for this experiment.
FIGURE11_QUERY = (
    "SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 "
    f"AND area(mask) > {AREA_THRESHOLD} AND xmax(mask) < 960 "
    f"GROUP BY trackid HAVING COUNT(*) > {MIN_FRAMES}"
)


def fig11_rows() -> list[Row]:
    """Filter classes added one at a time, then each removed from the
    combined plan.  Filter training time is excluded: it would dominate the
    per-query runtime the study is meant to explain."""
    bundle = scenario("taipei")
    engine = fresh_engine(bundle, include_training_time=False)
    session = engine.session()
    naive = naive_selection(bundle.recorded, engine.analyze(FIGURE11_QUERY), engine.udf_registry)
    frames = bundle.test.num_frames

    def row(study: str, configuration: str, classes: set[str], baseline_s: float | None) -> Row:
        result = session.execute(
            FIGURE11_QUERY, hints=QueryHints(selection_filter_classes=frozenset(classes))
        )
        throughput = speedup(frames, result.runtime_seconds)
        return {
            "study": study,
            "configuration": configuration,
            "runtime_s": result.runtime_seconds,
            "throughput_fps": throughput,
            "relative": 1.0 if baseline_s is None else throughput / speedup(frames, baseline_s),
            "detector_calls": result.detection_calls,
        }

    rows = [row("factor", label, classes, naive.runtime_seconds) for label, classes in FACTOR_STEPS]
    combined = row("lesion", "Combined", set(FILTER_CLASSES), None)
    rows.append(combined)
    for removed, label in zip(FILTER_CLASSES, LESIONS, strict=True):
        rows.append(row("lesion", label, set(FILTER_CLASSES) - {removed}, combined["runtime_s"]))
    return rows


def fig11_checks(rows: Sequence[Row]) -> None:
    factor = _by([r for r in rows if r["study"] == "factor"], "configuration")
    lesion = _by([r for r in rows if r["study"] == "lesion"], "configuration")
    order = [label for label, _ in FACTOR_STEPS]
    for earlier, later in zip(order, order[1:], strict=False):
        assert factor[later]["runtime_s"] <= factor[earlier]["runtime_s"] * 1.05, f"{later} hurts"
    assert factor["+Label"]["runtime_s"] < factor["Naive"]["runtime_s"] / 5, (
        "the full stack is not 5x faster"
    )
    # Removing a class never speeds the combined plan up (at worst it leaves
    # it unchanged, when that class contributed nothing).
    combined = lesion["Combined"]["runtime_s"]
    for removed in LESIONS:
        assert lesion[removed]["runtime_s"] >= combined * 0.95, f"{removed} speeds the plan up"
    assert any(lesion[removed]["runtime_s"] > combined * 1.2 for removed in LESIONS), (
        "no lesion slows the combined plan down"
    )


# -- Table 3: video streams and object labels --------------------------------------

#: Occupancy and mean duration targets from the paper's Table 3.  Distinct
#: counts are per 33-hour day there, so they are reported but not compared.
PAPER_STREAMS = {
    ("taipei", "bus"): (0.119, 2.82),
    ("taipei", "car"): (0.644, 1.43),
    ("night-street", "car"): (0.281, 3.94),
    ("rialto", "boat"): (0.899, 10.7),
    ("grand-canal", "boat"): (0.577, 9.50),
    ("amsterdam", "car"): (0.447, 7.88),
    ("archie", "car"): (0.518, 0.30),
}


def table3_rows() -> list[Row]:
    """Each scenario's test-day statistics next to the paper's targets."""
    rows = []
    for name in sorted(SCENARIOS):
        test = scenario(name).test
        for class_spec in get_scenario(name).classes:
            object_class = class_spec.name
            paper_occupancy, paper_duration = PAPER_STREAMS.get((name, object_class), (None, None))
            rows.append(
                {
                    "video": name,
                    "class": object_class,
                    "occupancy": test.occupancy(object_class),
                    "paper_occupancy": paper_occupancy,
                    "duration_s": test.mean_duration_seconds(object_class),
                    "paper_duration_s": paper_duration,
                    "distinct": test.distinct_count(object_class),
                    "resolution": f"{test.spec.width}x{test.spec.height}",
                    "fps": test.fps,
                    "frames": test.num_frames,
                }
            )
    return rows


def table3_checks(rows: Sequence[Row]) -> None:
    occupancy = {(r["video"], r["class"]): r["occupancy"] for r in rows}
    assert occupancy[("rialto", "boat")] > occupancy[("night-street", "car")], "rialto not denser"
    assert occupancy[("taipei", "car")] > occupancy[("taipei", "bus")], "taipei buses not sparser"


# -- Table 4: query-rewriting error ------------------------------------------------

PAPER_REWRITE_ERRORS = {
    "taipei": 0.043,
    "night-street": 0.022,
    "rialto": 0.031,
    "grand-canal": 0.081,
    "amsterdam": 0.050,
}
TABLE4_RUNS = 3


def table4_rows() -> list[Row]:
    """Mean absolute error of the forced specialized-NN rewrite over three
    training seeds, against the recorded detector output on the unseen day."""
    rows = []
    for name, paper_error in PAPER_REWRITE_ERRORS.items():
        bundle = scenario(name)
        object_class = bundle.primary_class
        truth = bundle.recorded.mean_count(object_class)
        query = aggregate_query(name, object_class, ERROR_TOLERANCE)
        errors = [
            abs(
                fresh_session(bundle, include_training_time=False, seed=seed)
                .execute(query, hints=QueryHints(force_plan="specialized_rewrite"))
                .value
                - truth
            )
            for seed in range(TABLE4_RUNS)
        ]
        rows.append(
            {
                "video": name,
                "class": object_class,
                "true_fcount": truth,
                "mean_abs_error": float(np.mean(errors)),
                "paper_error": paper_error,
            }
        )
    return rows


def table4_checks(rows: Sequence[Row]) -> None:
    # Modest slack for the smaller synthetic videos, but most must meet it.
    for row in rows:
        assert row["mean_abs_error"] <= 2 * ERROR_TOLERANCE, f"{row['video']}: twice the bound"
    within = sum(1 for row in rows if row["mean_abs_error"] <= ERROR_TOLERANCE)
    assert within >= len(rows) - 1, "more than one video misses the bound"


# -- Table 5: specialized NNs do not learn the average -----------------------------

TABLE5_VIDEOS = ["taipei", "night-street", "rialto", "grand-canal"]


def table5_rows() -> list[Row]:
    """One trained model's predicted and actual mean counts on two unseen
    days (the regular test day and a second one)."""
    rows = []
    for name in TABLE5_VIDEOS:
        bundle = scenario(name)
        object_class = bundle.primary_class
        model = _count_model(bundle, object_class)
        day2 = generate_scenario(name, "test2", FRAMES)
        row: Row = {"video": name, "class": object_class}
        for day, video, recorded in [
            ("day1", bundle.test, bundle.recorded),
            ("day2", day2, RecordedDetections.build(day2, bundle.detector)),
        ]:
            row[f"pred_{day}"] = model.mean_count(_test_features(video))
            row[f"actual_{day}"] = recorded.mean_count(object_class)
        rows.append(row)
    return rows


def table5_checks(rows: Sequence[Row]) -> None:
    # Predictions stay close to each day's actual value, and whenever the
    # days differ materially the prediction moves the same way.
    for row in rows:
        assert abs(row["pred_day1"] - row["actual_day1"]) < 0.35, f"{row['video']}: day 1 off"
        assert abs(row["pred_day2"] - row["actual_day2"]) < 0.35, f"{row['video']}: day 2 off"
    material = [row for row in rows if abs(row["actual_day1"] - row["actual_day2"]) >= 0.05]
    tracking = sum(
        1
        for row in material
        if (row["pred_day1"] - row["pred_day2"]) * (row["actual_day1"] - row["actual_day2"]) > 0
    )
    if material:
        assert tracking >= len(material) - 1, "predictions do not follow the days"


# -- Ablations (taipei) ------------------------------------------------------------

ABLATION_RUNS = 10
ABLATION_ERROR = 0.02


def ablation_cv_rows() -> list[Row]:
    """Mean samples with the per-round estimated coefficient, with the fixed
    ``c = -1`` often used in practice, and with no control variate."""
    bundle = scenario("taipei")
    counts = bundle.recorded.counts(bundle.primary_class).astype(float)
    value_range = float(counts.max(initial=0) + 1)
    model = _count_model(bundle, bundle.primary_class)
    auxiliary = model.expected_counts(_test_features(bundle.test))

    def samples(run: int, strategy: str) -> int:
        common = {
            "sample_fn": lambda idx: counts[idx],
            "error_tolerance": ABLATION_ERROR,
            "confidence": CONFIDENCE,
            "value_range": value_range,
            "rng": np.random.default_rng(run),
        }
        if strategy == "none":
            return adaptive_sample(population_size=counts.size, **common).samples_used
        return control_variate_estimate(
            auxiliary_values=auxiliary,
            fixed_coefficient=-1.0 if strategy == "fixed" else None,
            **common,
        ).samples_used

    return [
        {
            "strategy": label,
            "error": ABLATION_ERROR,
            "samples": float(np.mean([samples(run, strategy) for run in range(ABLATION_RUNS)])),
        }
        for label, strategy in [
            ("no control variate", "none"),
            ("fixed c = -1", "fixed"),
            ("estimated optimal c", "optimal"),
        ]
    ]


def ablation_cv_checks(rows: Sequence[Row]) -> None:
    samples = {row["strategy"]: row["samples"] for row in rows}
    optimal = samples["estimated optimal c"]
    assert optimal <= samples["no control variate"] * 1.05, (
        "the estimated c needs more samples than none"
    )
    assert optimal <= samples["fixed c = -1"] * 1.05, (
        "the estimated c needs more samples than c = -1"
    )


def ablation_capacity_rows() -> list[Row]:
    """Softmax regression (the default) against the small MLP: held-out
    counting error and correlation."""
    bundle = scenario("taipei")
    features = bundle.labeled_set.heldout_features
    truth = bundle.labeled_set.heldout_counts(bundle.primary_class)
    rows = []
    for model_type in ("softmax", "mlp"):
        model = _count_model(bundle, bundle.primary_class, model_type=model_type)
        predictions = model.predict_counts(features)
        expected = model.expected_counts(features)
        correlation = float(np.corrcoef(expected, truth)[0, 1]) if truth.std() > 0 else 0.0
        rows.append(
            {
                "model": model_type,
                "mean_error": abs(float(predictions.mean()) - float(truth.mean())),
                "mae": float(np.abs(predictions - truth).mean()),
                "correlation": correlation,
            }
        )
    return rows


def ablation_capacity_checks(rows: Sequence[Row]) -> None:
    for row in rows:
        assert row["mean_error"] < 0.3, f"{row['model']}: mean count off"
        assert row["correlation"] > 0.3, f"{row['model']}: uncorrelated with the detector"


def ablation_scrub_signal_rows() -> list[Row]:
    """Scrubbing a rare bus-and-cars conjunction by the paper's summed
    per-class ``P(count >= N)`` heads, and by a joint binary classifier
    trained on the conjunction (the class-imbalance-sensitive alternative)."""
    bundle = scenario("taipei")
    car_threshold = bus_and_car_threshold(bundle, LIMIT)
    min_counts = {"bus": 1, "car": car_threshold}
    limit = min(LIMIT, int(bundle.recorded.frames_satisfying(min_counts).size))
    features = _test_features(bundle.test)
    verify = has_bus_and_cars(bundle, car_threshold)
    labeled = bundle.labeled_set
    joint = BinaryPresenceModel("joint", training_config=TRAINING)
    joint.fit(
        labeled.train_features,
        (labeled.train_counts("car") >= car_threshold) & (labeled.train_counts("bus") >= 1),
    )
    rows = []
    for signal, scores in [
        ("per-class heads (paper)", _bus_car_model(bundle).score_conjunction(features, min_counts)),
        ("joint binary classifier", joint.predict_proba_present(features)),
    ]:
        result = importance_scrub(scores, verify, limit=limit)
        rows.append(
            {
                "signal": signal,
                "limit": limit,
                "detector_calls": result.detection_calls,
                "found": len(result.frames),
            }
        )
    return rows


def ablation_scrub_signal_checks(rows: Sequence[Row]) -> None:
    heads, joint = rows
    assert heads["found"] == heads["limit"], "the per-class heads miss the limit"
    assert heads["detector_calls"] <= joint["detector_calls"] * 2.0, (
        "the per-class heads are not competitive"
    )


# -- The cost-based optimizer: chosen vs forced plans (night-street) ---------------

#: Forced alternatives whose results honour the query's accuracy contract
#: (``specialized_rewrite`` bypasses the accuracy gate).
CONTRACT_FORCED = {
    "aggregate": ["exact", "naive_aqp", "control_variates"],
    "scrubbing": ["exhaustive"],
    "selection": ["exhaustive"],
    "exact": ["exhaustive"],
}
#: All forced alternatives, contract-honouring or not.
ALL_FORCED = {
    **CONTRACT_FORCED,
    "aggregate": ["exact", "naive_aqp", "specialized_rewrite", "control_variates"],
}


def optimizer_rows() -> list[Row]:
    """Each query class under the cost-chosen plan and every forced
    alternative, all under one RNG seed."""
    bundle = scenario("night-street")
    object_class = SCRUBBING_QUERIES["night-street"].object_class
    threshold = rare_event_threshold(bundle, object_class)
    queries = {
        "aggregate": (
            f"SELECT FCOUNT(*) FROM night-street WHERE class='{object_class}' "
            "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
        ),
        "scrubbing": (
            "SELECT timestamp FROM night-street GROUP BY timestamp "
            f"HAVING SUM(class='{object_class}') >= {threshold} LIMIT 10"
        ),
        "selection": (
            f"SELECT * FROM night-street WHERE class='{object_class}' AND redness(content) >= 17.5"
        ),
        "exact": "SELECT * FROM night-street",
    }
    session = fresh_session(bundle)
    rows = []
    for kind, text in queries.items():
        for forced in [None, *ALL_FORCED[kind]]:
            result = session.execute(
                text,
                hints=QueryHints(force_plan=forced) if forced else None,
                rng=np.random.default_rng(1234),
            )
            rows.append(
                {
                    "query_class": kind,
                    "variant": f"forced:{forced}" if forced else "cost-chosen",
                    "method": result.method,
                    "detector_calls": result.execution_ledger.detector_calls,
                    "runtime_s": result.runtime_seconds,
                }
            )
    return rows


def optimizer_checks(rows: Sequence[Row]) -> None:
    calls = {(row["query_class"], row["variant"]): row["detector_calls"] for row in rows}
    classes_beating_all = 0
    for kind, contract in CONTRACT_FORCED.items():
        chosen = calls[(kind, "cost-chosen")]
        # Hard guarantee: no contract-honouring alternative beats the chosen
        # plan on detector calls under the same seed.
        for name in contract:
            assert chosen <= calls[(kind, f"forced:{name}")], (
                f"{kind}: chosen plan used {chosen} detector calls, "
                f"forced {name} used {calls[(kind, f'forced:{name}')]}"
            )
        if all(chosen <= calls[(kind, f"forced:{name}")] for name in ALL_FORCED[kind]):
            classes_beating_all += 1
    # Forcing the rewrite may take fewer calls exactly when it would break
    # the error bound, which is why Algorithm 1's gate rejected it.
    assert classes_beating_all >= 3, (
        f"chosen plan beat every forced alternative on only "
        f"{classes_beating_all} of 4 query classes"
    )


# -- Streaming: time to the first hit vs the full scrub ----------------------------


def streaming_rows() -> list[Row]:
    """Figure 6's scrubbing queries run to LIMIT 10, stopped at the first
    verified hit (``StopConditions(limit=1)``), and streamed until the first
    ``ScrubbingHit`` arrives."""
    rows = []
    for name, spec in SCRUBBING_QUERIES.items():
        bundle = scenario(name)
        threshold = rare_event_threshold(bundle, spec.object_class)
        query = scrubbing_query(name, spec.object_class, threshold, limit=LIMIT, gap=0)
        predicate = f"{spec.object_class}>={threshold}"
        session = fresh_session(bundle)
        full = session.execute(query)
        first_hit = session.execute(query, stop=StopConditions(limit=1))
        for variant, result in (("full LIMIT 10", full), ("first hit (limit=1)", first_hit)):
            rows.append(
                {
                    "video": name,
                    "predicate": predicate,
                    "variant": variant,
                    "runtime_s": result.runtime_seconds,
                    "detector_calls": result.execution_ledger.detector_calls,
                    "found": len(result.frames),
                    "speedup": speedup(full.runtime_seconds, result.runtime_seconds),
                }
            )
        stream = session.stream(query)
        first_frame = None
        for event in stream:
            if isinstance(event, ScrubbingHit) and first_frame is None:
                first_frame = event.frame_index
                stream.cancel()
        rows.append(
            {
                "video": name,
                "predicate": predicate,
                "variant": "streamed first event",
                "found": int(first_frame is not None),
                "frame": first_frame,
            }
        )
    return rows


def streaming_checks(rows: Sequence[Row]) -> None:
    for video, group in _per(rows, "video").items():
        by = _by(group, "variant")
        full, first = by["full LIMIT 10"], by["first hit (limit=1)"]
        assert first["found"] == 1, f"{video}: the first-hit run did not stop at one hit"
        assert first["detector_calls"] < full["detector_calls"], (
            f"{video}: first hit costs the full scrub"
        )
        assert first["runtime_s"] <= full["runtime_s"], (
            f"{video}: first hit slower than the full scrub"
        )
        # The stream really is incremental: its first hit arrives.
        assert by["streamed first event"]["found"] == 1, f"{video}: the stream emitted no hit"


# -- the table -----------------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One figure or table: its runner, its shape checks and the paper's
    headline those checks stand for."""

    run: Callable[[], list[Row]]
    check: Callable[[Sequence[Row]], None]
    headline: str

    def rows(self) -> list[Row]:
        """The regenerated rows as ``REPRODUCTION.json`` holds them."""
        return json.loads(json.dumps(self.run()))


FIGURES: dict[str, Figure] = {
    "fig4": Figure(
        fig4_rows,
        fig4_checks,
        "BlazeIt answers aggregates 2,000-8,500x faster than Naive on the five "
        "videos where query rewriting applies, within the 0.1 error bound",
    ),
    "fig5": Figure(
        fig5_rows,
        fig5_checks,
        "control variates never need more samples than naive AQP, and need up "
        "to ~2x fewer as the specialized NN correlates with the detector",
    ),
    "fig6": Figure(
        fig6_rows,
        fig6_checks,
        "BlazeIt's ranked scrubbing needs fewer detector calls than the naive "
        "scan and is competitive with the NoScope oracle; the index is faster still",
    ),
    "fig7": Figure(
        fig7_rows,
        fig7_checks,
        "naive and oracle sample counts grow as N cars get rarer, while "
        "BlazeIt's biased sampling stays nearly flat",
    ),
    "fig8": Figure(
        fig8_rows,
        fig8_checks,
        "on a bus-and-cars conjunction the oracle gains, but BlazeIt still wins",
    ),
    "fig9": Figure(
        fig9_rows,
        fig9_checks,
        "BlazeIt is up to five orders of magnitude more sample-efficient than "
        "the naive scan as the number of requested clips grows",
    ),
    "fig10": Figure(
        fig10_rows,
        fig10_checks,
        "on the red-bus selection the NoScope oracle is 8.4x and BlazeIt 54x "
        "faster than Naive, with only false negatives possible",
    ),
    "fig11": Figure(
        fig11_rows,
        fig11_checks,
        "every filter class added improves throughput, and removing any class "
        "from the combined plan degrades it",
    ),
    "table3": Figure(
        table3_rows,
        table3_checks,
        "the streams' per-class occupancy and object durations follow the "
        "paper's videos: dense scenes dense, sparse scenes sparse",
    ),
    "table4": Figure(
        table4_rows,
        table4_checks,
        "query rewriting with specialized NNs stays within the requested 0.1 "
        "error on all five videos",
    ),
    "table5": Figure(
        table5_rows,
        table5_checks,
        "specialized NNs return different, accurate counts on different days: "
        "they do not simply learn the average",
    ),
    "ablation_cv": Figure(
        ablation_cv_rows,
        ablation_cv_checks,
        "the per-round estimated control-variate coefficient needs no more "
        "samples than c = -1 or no control variate",
    ),
    "ablation_capacity": Figure(
        ablation_capacity_rows,
        ablation_capacity_checks,
        "both specialized model capacities count accurately on the held-out day",
    ),
    "ablation_scrub_signal": Figure(
        ablation_scrub_signal_rows,
        ablation_scrub_signal_checks,
        "per-class count heads rank a rare conjunction at least as well as a "
        "joint binary classifier, despite the class imbalance",
    ),
    "optimizer": Figure(
        optimizer_rows,
        optimizer_checks,
        "the cost-chosen plan needs no more detector calls than any "
        "contract-honouring forced plan, and than every forced plan on 3 of 4 classes",
    ),
    "streaming": Figure(
        streaming_rows,
        streaming_checks,
        "a stream shows its first verified clip after a prefix of the ranked "
        "scan, long before the full LIMIT 10 is found",
    ),
}


# -- comparing and writing the table -----------------------------------------------


def differences(committed: dict[str, list[Row]], regenerated: dict[str, list[Row]]) -> list[str]:
    """Every figure, row and field where two tables differ, one line each."""
    lines = []
    for name in dict.fromkeys([*committed, *regenerated]):
        if name not in committed:
            lines.append(f"{name}: not committed")
            continue
        if name not in regenerated:
            lines.append(f"{name}: not regenerated")
            continue
        old, new = committed[name], regenerated[name]
        if len(old) != len(new):
            lines.append(f"{name}: {len(old)} rows committed, {len(new)} regenerated")
        for index, (old_row, new_row) in enumerate(zip(old, new, strict=False)):
            label = ", ".join(str(v) for v in old_row.values() if isinstance(v, str))
            for field in dict.fromkeys([*old_row, *new_row]):
                before, after = old_row.get(field, "<absent>"), new_row.get(field, "<absent>")
                if before != after:
                    lines.append(
                        f"{name} row {index} ({label}) {field}: "
                        f"committed {before!r}, regenerated {after!r}"
                    )
    return lines


def dump(table: dict[str, list[Row]]) -> str:
    """The table as JSON with one row per line, so a moved row is a one-line diff."""
    figures = [
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in table.items()
    ]
    return "{\n" + ",\n".join(figures) + "\n}\n"


def format_value(value: Any) -> str:
    """Format one cell for console output."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """Print an aligned text table with a title banner."""
    rendered = [[format_value(cell) for cell in row] for row in rows]
    widths = [
        max([len(str(header)), *(len(r[col]) for r in rendered)])
        for col, header in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths, strict=True))
    print(f"\n{'=' * len(line)}\n{title}\n{'=' * len(line)}\n{line}\n{'-' * len(line)}")
    for row in rendered:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths, strict=True)))
    print()


def print_figure(name: str, rows: Sequence[Row]) -> None:
    """Print one figure's rows under its headline."""
    headers = list(dict.fromkeys(field for row in rows for field in row))
    print_table(
        f"{name}: {FIGURES[name].headline}",
        headers,
        [["" if row.get(h) is None else row[h] for h in headers] for row in rows],
    )
