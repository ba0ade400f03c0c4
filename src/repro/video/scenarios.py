"""The six evaluation scenarios of the paper (Table 3).

Each scenario is parameterised so that the generated video matches the
statistics the paper reports for the corresponding YouTube stream: the object
classes present, their occupancy (fraction of frames with at least one
object), their average dwell time, the frame rate and resolution.  The
absolute video length is scaled down (the paper uses 18-33 hours per stream;
we default to tens of minutes) to keep the reproduction laptop-sized.

Most optimizations depend on per-frame statistics and keep their comparison
shapes at this scale.  Algorithm 1's rewrite does not: object dwell and
burstiness correlate frames over long spans, so a short held-out day bounds
the trained model's error only loosely, and the gate (batch means of the
held-out residuals) refuses the rewrite there.  Over 200 independent days
per length (``benchmarks/gate_sweep.py``: ``rialto`` / ``boat``, ``ERROR
WITHIN 0.1 AT CONFIDENCE 95%``) it rewrote on none at 3,000 frames, 30% at
18,000 (the default) and 82% at 54,000, missing the tolerance in 2 of 59
rewrites at 18,000 and in none at 54,000.  At the default length most such
aggregates therefore sample with control variates.

The paper uses three days per stream: one for training labels, one for
threshold/held-out computation and one for testing.  :func:`generate_scenario`
exposes the same splits by re-seeding the generator per split ("different days
drawn from the same distribution").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.video.synthetic import ObjectClassSpec, SyntheticVideo, VideoSpec

#: Default number of frames generated per split.  Roughly ten minutes of
#: 30 fps video; small enough to iterate on, large enough that rare events
#: (Table 6) have a handful of instances.
DEFAULT_SPLIT_FRAMES = 18_000

#: The named splits the paper uses (Section 10.1).
SPLITS = ("train", "heldout", "test", "test2")

_SPLIT_SEED_OFFSETS = {"train": 0, "heldout": 1, "test": 2, "test2": 3}


@dataclass(frozen=True)
class ScenarioClassSpec:
    """Per-class statistics a scenario promises to reproduce (from Table 3)."""

    name: str
    occupancy: float
    mean_duration_seconds: float
    size_range: tuple[float, float]
    color_weights: dict[str, float]
    burstiness: float = 0.3
    region: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    speed: float = 4.0


@dataclass(frozen=True)
class ScenarioSpec:
    """A named evaluation scenario."""

    name: str
    width: int
    height: int
    fps: float
    classes: tuple[ScenarioClassSpec, ...]
    base_seed: int
    #: The primary object class queried in the paper's evaluation.
    primary_class: str

    def arrival_rate(self, class_spec: ScenarioClassSpec) -> float:
        """Arrival rate (tracks per frame) implied by occupancy and duration.

        With Poisson arrivals at rate ``lambda`` and mean dwell ``d`` frames,
        the number of objects present is Poisson with mean ``lambda * d``, so
        occupancy is ``1 - exp(-lambda * d)``.
        """
        duration_frames = max(1.0, class_spec.mean_duration_seconds * self.fps)
        occupancy = min(max(class_spec.occupancy, 1e-6), 0.999)
        return -math.log(1.0 - occupancy) / duration_frames

    def to_video_spec(self, split: str, num_frames: int) -> VideoSpec:
        """Concrete :class:`VideoSpec` for one split of this scenario."""
        if split not in _SPLIT_SEED_OFFSETS:
            raise ValueError(f"unknown split {split!r}; expected one of {SPLITS}")
        object_classes = tuple(
            ObjectClassSpec(
                name=cls.name,
                arrival_rate=self.arrival_rate(cls),
                mean_duration=max(2.0, cls.mean_duration_seconds * self.fps),
                size_range=cls.size_range,
                color_weights=cls.color_weights,
                burstiness=cls.burstiness,
                region=cls.region,
                speed=cls.speed,
            )
            for cls in self.classes
        )
        return VideoSpec(
            name=f"{self.name}-{split}",
            width=self.width,
            height=self.height,
            fps=self.fps,
            num_frames=num_frames,
            object_classes=object_classes,
            seed=self.base_seed * 1000 + _SPLIT_SEED_OFFSETS[split],
        )


_CAR_COLORS = {
    "white": 3.0,
    "black": 3.0,
    "silver": 2.5,
    "red": 1.0,
    "blue": 1.0,
    "green": 0.3,
}
_BUS_COLORS = {"white": 3.5, "red": 2.0, "blue": 0.5, "yellow": 0.5}
_BOAT_COLORS = {"white": 4.0, "blue": 1.5, "red": 0.8, "black": 0.5}
_PERSON_COLORS = {"black": 2.0, "white": 1.5, "blue": 1.5, "red": 1.0, "green": 0.5}


SCENARIOS: dict[str, ScenarioSpec] = {
    "taipei": ScenarioSpec(
        name="taipei",
        width=1280,
        height=720,
        fps=30.0,
        primary_class="car",
        base_seed=11,
        classes=(
            ScenarioClassSpec(
                name="bus",
                occupancy=0.119,
                mean_duration_seconds=2.82,
                size_range=(280.0, 560.0),
                color_weights=_BUS_COLORS,
                burstiness=0.25,
                region=(0.1, 0.35, 0.95, 0.95),
                speed=5.0,
            ),
            ScenarioClassSpec(
                name="car",
                occupancy=0.644,
                mean_duration_seconds=1.43,
                size_range=(60.0, 180.0),
                color_weights=_CAR_COLORS,
                burstiness=0.5,
                region=(0.0, 0.3, 1.0, 1.0),
                speed=8.0,
            ),
        ),
    ),
    "night-street": ScenarioSpec(
        name="night-street",
        width=1280,
        height=720,
        fps=30.0,
        primary_class="car",
        base_seed=23,
        classes=(
            ScenarioClassSpec(
                name="car",
                occupancy=0.281,
                mean_duration_seconds=3.94,
                size_range=(70.0, 200.0),
                color_weights=_CAR_COLORS,
                burstiness=0.45,
                region=(0.0, 0.4, 1.0, 1.0),
                speed=6.0,
            ),
        ),
    ),
    "rialto": ScenarioSpec(
        name="rialto",
        width=1280,
        height=720,
        fps=30.0,
        primary_class="boat",
        base_seed=37,
        classes=(
            ScenarioClassSpec(
                name="boat",
                occupancy=0.899,
                mean_duration_seconds=10.7,
                size_range=(100.0, 300.0),
                color_weights=_BOAT_COLORS,
                burstiness=0.4,
                region=(0.0, 0.45, 1.0, 0.95),
                speed=3.0,
            ),
        ),
    ),
    "grand-canal": ScenarioSpec(
        name="grand-canal",
        width=1920,
        height=1080,
        fps=60.0,
        primary_class="boat",
        base_seed=41,
        classes=(
            ScenarioClassSpec(
                name="boat",
                occupancy=0.577,
                mean_duration_seconds=9.50,
                size_range=(120.0, 380.0),
                color_weights=_BOAT_COLORS,
                burstiness=0.4,
                region=(0.05, 0.4, 0.95, 0.95),
                speed=2.5,
            ),
        ),
    ),
    "amsterdam": ScenarioSpec(
        name="amsterdam",
        width=1280,
        height=720,
        fps=30.0,
        primary_class="car",
        base_seed=53,
        classes=(
            ScenarioClassSpec(
                name="car",
                occupancy=0.447,
                mean_duration_seconds=7.88,
                size_range=(60.0, 170.0),
                color_weights=_CAR_COLORS,
                burstiness=0.35,
                region=(0.0, 0.35, 1.0, 1.0),
                speed=3.5,
            ),
            ScenarioClassSpec(
                name="person",
                occupancy=0.30,
                mean_duration_seconds=5.0,
                size_range=(30.0, 80.0),
                color_weights=_PERSON_COLORS,
                burstiness=0.3,
                region=(0.0, 0.5, 1.0, 1.0),
                speed=1.5,
            ),
        ),
    ),
    "archie": ScenarioSpec(
        name="archie",
        width=3840,
        height=2160,
        fps=30.0,
        primary_class="car",
        base_seed=67,
        classes=(
            ScenarioClassSpec(
                name="car",
                occupancy=0.518,
                mean_duration_seconds=0.30,
                size_range=(80.0, 240.0),
                color_weights=_CAR_COLORS,
                burstiness=0.6,
                region=(0.0, 0.3, 1.0, 1.0),
                speed=14.0,
            ),
        ),
    ),
}


def list_scenarios() -> list[str]:
    """Names of all built-in scenarios."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario spec by name."""
    try:
        return SCENARIOS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(list_scenarios())}"
        ) from exc


def generate_scenario(
    name: str,
    split: str = "test",
    num_frames: int = DEFAULT_SPLIT_FRAMES,
) -> SyntheticVideo:
    """Generate one split ("day") of a named scenario.

    Parameters
    ----------
    name:
        One of the scenario names in :data:`SCENARIOS`.
    split:
        ``"train"``, ``"heldout"``, ``"test"`` or ``"test2"``; each split is a
        different random realisation of the same scene statistics, mirroring
        the paper's use of different days of the same stream.
    num_frames:
        Length of the generated split in frames.
    """
    scenario = get_scenario(name)
    return SyntheticVideo.generate(scenario.to_video_spec(split, num_frames))


