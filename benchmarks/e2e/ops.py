"""Inputs of the benchmark: videos, query shapes and the seeded op list.

Everything here is a pure function of its arguments.  The program under test
only ever sees the generated FrameQL text (plus hints for the sharded and
warm-start ops); the seed reaches it through ``BlazeItConfig(seed=...)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.video.scenarios import generate_scenario
from repro.video.synthetic import ObjectClassSpec, SyntheticVideo, VideoSpec

#: One scale for every workload: frames per split (train / held-out / test).
FRAMES = 3000
SCENARIO = "rialto"
SPARSE = "sparse"

#: Scrubbing predicate parameters (``HAVING SUM(class=cls) >= 3 LIMIT 10 GAP 30``).
SCRUB_MIN_COUNT = 3
SCRUB_LIMIT = 10
SCRUB_GAP = 30

#: Error tolerances of the two aggregate shapes.
REWRITE_TOLERANCE = 0.1
CV_TOLERANCE = 0.01

#: FrameQL templates of the five query shapes; ``{v}`` is the video name and
#: ``{cls}`` the video's first object class.
SHAPES: dict[str, str] = {
    "aggregate_rewrite": (
        "SELECT FCOUNT(*) FROM {v} WHERE class='{cls}' "
        f"ERROR WITHIN {REWRITE_TOLERANCE} AT CONFIDENCE 95%"
    ),
    "aggregate_cv": (
        "SELECT FCOUNT(*) FROM {v} WHERE class='{cls}' "
        f"ERROR WITHIN {CV_TOLERANCE} AT CONFIDENCE 95%"
    ),
    "scrubbing": (
        "SELECT timestamp FROM {v} GROUP BY timestamp "
        f"HAVING SUM(class='{{cls}}')>={SCRUB_MIN_COUNT} "
        f"LIMIT {SCRUB_LIMIT} GAP {SCRUB_GAP}"
    ),
    "selection": "SELECT * FROM {v} WHERE class='{cls}'",
    "exact": "SELECT * FROM {v}",
}
SHAPE_NAMES = tuple(SHAPES)
#: The shapes that scan the video with the detector (the sharded workload).
SCAN_SHAPES = ("aggregate_cv", "selection", "exact")
#: Shapes whose results are RNG-free, so a fingerprint must repeat exactly.
FINGERPRINT_SHAPES = ("selection", "exact")


def sparse_spec(num_frames: int = FRAMES) -> VideoSpec:
    """A 1-class video where cars are rare: most sketch ranges are provably
    empty, so index-served ops over it take the skip path."""
    return VideoSpec(
        name=SPARSE,
        width=1280,
        height=720,
        fps=30.0,
        num_frames=num_frames,
        seed=17,
        object_classes=(
            ObjectClassSpec(
                name="car",
                arrival_rate=0.002,
                mean_duration=40.0,
                size_range=(80.0, 200.0),
                color_weights={"white": 2.0, "red": 1.0},
                burstiness=0.4,
                speed=6.0,
            ),
        ),
    )


@dataclass(frozen=True)
class Videos:
    """The generated inputs shared by every engine a workload builds."""

    train: SyntheticVideo
    heldout: SyntheticVideo
    test: SyntheticVideo
    sparse: SyntheticVideo

    def by_name(self, name: str) -> SyntheticVideo:
        return self.test if name == SCENARIO else self.sparse

    def class_of(self, name: str) -> str:
        return self.by_name(name).object_class_names[0]


def generate_videos(num_frames: int = FRAMES) -> Videos:
    return Videos(
        train=generate_scenario(SCENARIO, "train", num_frames),
        heldout=generate_scenario(SCENARIO, "heldout", num_frames),
        test=generate_scenario(SCENARIO, "test", num_frames),
        sparse=SyntheticVideo.generate(sparse_spec(num_frames)),
    )


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``kind`` is the name its wall samples are grouped under; ``variant``
    distinguishes ops of one shape that run differently (the video for the
    index-served workloads, the backend for the sharded one).
    """

    shape: str
    video: str = SCENARIO
    variant: str = ""

    @property
    def kind(self) -> str:
        return f"{self.shape}@{self.variant}" if self.variant else self.shape

    def text(self, videos: Videos) -> str:
        return SHAPES[self.shape].format(v=self.video, cls=videos.class_of(self.video))


def block(seed: int, index: int, kinds: tuple[Op, ...]) -> list[Op]:
    """Block ``index`` of the op list: every op kind once, in seeded order.

    The op list of a run is ``block(seed, 0) + block(seed, 1) + ...`` — whole
    blocks only, so every kind gets an equal share of the run.
    """
    ops = list(kinds)
    random.Random(f"{seed}:{index}").shuffle(ops)
    return ops


LIVE_KINDS = tuple(Op(shape) for shape in SHAPE_NAMES)
#: Half the ops on the dense scenario, half on the sparse video.
INDEXED_KINDS = LIVE_KINDS + tuple(
    Op(shape, video=SPARSE, variant=SPARSE) for shape in SHAPE_NAMES
)
SHARDED_KINDS = tuple(
    Op(shape, variant=backend)
    for backend in ("threads", "processes")
    for shape in SCAN_SHAPES
)
