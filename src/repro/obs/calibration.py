"""Optimizer estimate-error report from EXPLAIN ANALYZE profiles.

``python -m repro.obs calibration`` runs one representative query of each
class, plus a sampled (``ERROR WITHIN``) aggregate so a sampling plan is
calibrated too, over a built-in scenario with catalog statistics, executes
each with ``analyze=True``, and reports how far the optimizer's per-operator
detector-call estimates diverged from the actuals the spans recorded — the
feedback loop for re-calibrating the cost model's constants.
"""

from __future__ import annotations

from typing import Any

from repro.obs.profile import ExecutionProfile, estimate_errors

#: One representative query per class over the calibration scenario, plus a
#: sampled aggregate.
CALIBRATION_QUERIES: tuple[tuple[str, str], ...] = (
    ("aggregate", "SELECT FCOUNT(*) FROM v WHERE class = '{cls}'"),
    (
        "aggregate",
        "SELECT FCOUNT(*) FROM v WHERE class = '{cls}' "
        "ERROR WITHIN 0.1 AT CONFIDENCE 95%",
    ),
    (
        "scrubbing",
        "SELECT timestamp FROM v GROUP BY timestamp "
        "HAVING COUNT(class = '{cls}') >= 1 LIMIT 5 GAP 30",
    ),
    ("selection", "SELECT * FROM v WHERE class = '{cls}'"),
    ("exact", "SELECT * FROM v"),
)

DEFAULT_FRAMES = 600


def collect_profiles(num_frames: int = DEFAULT_FRAMES) -> list[ExecutionProfile]:
    """Execute the calibration workload and return its EXPLAIN ANALYZE
    profiles (one per query class)."""
    from repro.core.config import BlazeItConfig
    from repro.core.engine import BlazeIt
    from repro.video.scenarios import generate_scenario

    engine = BlazeIt(config=BlazeItConfig(seed=0))
    engine.register_video(
        "v",
        test_video=generate_scenario("rialto", "test", num_frames),
        train_video=generate_scenario("rialto", "train", num_frames),
        heldout_video=generate_scenario("rialto", "heldout", num_frames),
    )
    cls = engine.store.get("v").object_class_names[0]
    profiles = []
    with engine.session() as session:
        for _, template in CALIBRATION_QUERIES:
            prepared = session.prepare(template.format(cls=cls))
            result = prepared.execute(analyze=True)
            if result.profile is not None:
                profiles.append(result.profile)
    return profiles


def calibration_report(num_frames: int = DEFAULT_FRAMES) -> dict[str, Any]:
    """The estimate-error report: per-operator rows plus a summary."""
    profiles = collect_profiles(num_frames)
    rows = estimate_errors(profiles)
    worst = max((abs(r["relative_error"]) for r in rows), default=0.0)
    return {
        "frames": num_frames,
        "queries": len(profiles),
        "rows": rows,
        "worst_relative_error": worst,
    }


def render_report(report: dict[str, Any]) -> str:
    """Human-readable calibration table."""
    lines = [
        f"optimizer calibration over {report['queries']} queries "
        f"({report['frames']} frames)",
        f"{'kind':<10} {'operator':<24} {'estimated':>10} {'actual':>10} {'error':>8}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['kind']:<10} {row['operator']:<24} "
            f"{row['estimated_detector_calls']:>10} "
            f"{row['actual_detector_calls']:>10} "
            f"{row['relative_error']:>+8.2f}"
        )
    lines.append(f"worst relative error: {report['worst_relative_error']:.2f}")
    return "\n".join(lines)


__all__ = ["calibration_report", "collect_profiles", "render_report"]
