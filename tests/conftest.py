"""Shared fixtures for the test suite.

The expensive fixtures (scenario generation, labeled-set construction, test-day
recording) are session-scoped: they simulate "days" of video and run the
simulated detector over them once, then every test reads from the same
objects.

Every ``repro.sync.Guarded`` acquisition in the suite goes through one
session-wide lockdep (``tests/lockdep.py``): a lock-order cycle or a re-entered
guard raises where it happens and fails the test that caused it, on whichever
thread it ran.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.core.labeled_set import LabeledSet
from repro.core.recorded import RecordedDetections
from repro.detection.simulated import SimulatedDetector
from repro.specialization.trainer import TrainingConfig
from repro.video.frame import COLOR_PALETTE
from repro.video.synthetic import ObjectClassSpec, SyntheticVideo, VideoSpec
from lockdep import Lockdep, install

LOCKDEP = Lockdep()


def pytest_configure(config: pytest.Config) -> None:
    install(LOCKDEP)


@pytest.fixture(autouse=True)
def _lock_order_checked():
    """Fail the test during which any thread broke the lock order."""
    yield
    violations = LOCKDEP.take_violations()
    assert not violations, "\n\n".join(violations)


def make_video_spec(
    name: str = "tiny",
    num_frames: int = 400,
    seed: int = 7,
    car_rate: float = 0.03,
    bus_rate: float = 0.01,
) -> VideoSpec:
    """A small two-class video spec used across unit tests."""
    return VideoSpec(
        name=name,
        width=1280,
        height=720,
        fps=30.0,
        num_frames=num_frames,
        seed=seed,
        object_classes=(
            ObjectClassSpec(
                name="car",
                arrival_rate=car_rate,
                mean_duration=40.0,
                size_range=(80.0, 200.0),
                color_weights={"white": 2.0, "red": 1.0, "black": 2.0},
                burstiness=0.4,
                speed=6.0,
            ),
            ObjectClassSpec(
                name="bus",
                arrival_rate=bus_rate,
                mean_duration=80.0,
                size_range=(250.0, 500.0),
                color_weights={"white": 1.5, "red": 1.0},
                burstiness=0.2,
                speed=4.0,
            ),
        ),
    )


@pytest.fixture(scope="session")
def tiny_video() -> SyntheticVideo:
    """A small synthetic video (400 frames, cars and buses)."""
    return SyntheticVideo.generate(make_video_spec())


@pytest.fixture(scope="session")
def tiny_train_video() -> SyntheticVideo:
    """A training-day realisation of the same scene statistics."""
    return SyntheticVideo.generate(make_video_spec(name="tiny-train", seed=8))


@pytest.fixture(scope="session")
def tiny_heldout_video() -> SyntheticVideo:
    """A held-out-day realisation of the same scene statistics."""
    return SyntheticVideo.generate(make_video_spec(name="tiny-heldout", seed=9))


@pytest.fixture(scope="session")
def detector() -> SimulatedDetector:
    """The default Mask R-CNN configuration."""
    return SimulatedDetector.mask_rcnn()


@pytest.fixture(scope="session")
def tiny_recorded(tiny_video, detector) -> RecordedDetections:
    """Recorded detector output over the tiny test video."""
    return RecordedDetections.build(tiny_video, detector)


@pytest.fixture(scope="session")
def tiny_labeled_set(tiny_train_video, tiny_heldout_video, detector) -> LabeledSet:
    """Labeled set built from the tiny training and held-out days."""
    return LabeledSet.build(tiny_train_video, tiny_heldout_video, detector)


@pytest.fixture(scope="session")
def fast_training_config() -> TrainingConfig:
    """Training configuration small enough for unit tests."""
    return TrainingConfig(epochs=3, batch_size=32, min_examples=16)


@pytest.fixture(scope="session")
def engine_config(fast_training_config) -> BlazeItConfig:
    """Engine configuration tuned for the tiny test videos."""
    return BlazeItConfig(
        training=fast_training_config,
        min_training_positives=20,
        seed=3,
    )


@pytest.fixture(scope="session")
def tiny_engine(
    tiny_video, tiny_train_video, tiny_heldout_video, detector, engine_config
) -> BlazeIt:
    """A fully registered engine over the tiny video (with labeled set)."""
    engine = BlazeIt(detector=detector, config=engine_config)
    engine.register_video(
        "tiny",
        test_video=tiny_video,
        train_video=tiny_train_video,
        heldout_video=tiny_heldout_video,
    )
    engine.record_test_day("tiny")
    return engine


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic random generator for per-test use."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def palette_red() -> tuple[float, float, float]:
    """The canonical red colour of the palette."""
    return COLOR_PALETTE["red"]
