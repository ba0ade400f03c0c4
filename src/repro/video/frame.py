"""Frame-level representations of the synthetic video.

A :class:`Frame` is what the rest of the system sees when it asks the video
store for a specific timestamp: the frame index, the list of ground-truth
objects visible in it (used by the simulated detector), and a cheap feature
vector (used by specialized NNs and content filters in place of real pixels).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.video.geometry import BoundingBox

# Canonical colours used by the synthetic scene generator.  UDFs such as
# ``redness`` operate on the per-object colour plus observation noise.
COLOR_PALETTE: dict[str, tuple[float, float, float]] = {
    "red": (200.0, 40.0, 40.0),
    "white": (220.0, 220.0, 220.0),
    "blue": (40.0, 60.0, 200.0),
    "black": (30.0, 30.0, 30.0),
    "silver": (170.0, 170.0, 180.0),
    "yellow": (220.0, 200.0, 40.0),
    "green": (40.0, 170.0, 60.0),
    "brown": (120.0, 80.0, 40.0),
}


@dataclass(frozen=True)
class GroundTruthObject:
    """An object visible in a single frame of the synthetic world.

    This is the *ground truth* the simulated detector perturbs; it is never
    exposed directly to query execution (which must pay for detection).
    """

    track_id: int
    object_class: str
    box: BoundingBox
    color: tuple[float, float, float]
    color_name: str

    @property
    def area(self) -> float:
        """Area of the object's bounding box in square pixels."""
        return self.box.area


@dataclass
class Frame:
    """A single frame of video.

    Attributes
    ----------
    index:
        Zero-based frame index within the video.
    timestamp:
        Seconds since the start of the video (``index / fps``).
    width, height:
        Frame resolution in pixels.
    objects:
        Ground-truth objects visible in the frame.
    features:
        Cheap per-frame feature vector (grid colour/occupancy summary with
        observation noise).  Computed lazily by the video store; ``None``
        until requested.
    """

    index: int
    timestamp: float
    width: int
    height: int
    objects: list[GroundTruthObject] = field(default_factory=list)
    features: np.ndarray | None = None

    def count(self, object_class: str | None = None) -> int:
        """Number of objects, optionally restricted to one class."""
        if object_class is None:
            return len(self.objects)
        return sum(1 for obj in self.objects if obj.object_class == object_class)

