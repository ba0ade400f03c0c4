"""Geometric primitives: points and axis-aligned bounding boxes.

FrameQL's ``mask`` field is "a polygon containing the object of interest,
typically a rectangle" (Table 1); like the paper we only consider axis-aligned
bounding boxes.  The intersection-over-union computation here is the basis of
the motion-IoU entity resolution (Section 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """A 2-D point in pixel coordinates."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned bounding box in pixel coordinates.

    Coordinates follow the image convention: ``x`` grows to the right and
    ``y`` grows downwards.  ``x_max``/``y_max`` are exclusive edges, so a
    degenerate box with ``x_min == x_max`` has zero area.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        # Coordinates are normalised to float so a box survives any wire
        # round-trip byte-identically: the process-backend shard transport
        # packs boxes into float64 arrays, and an int-valued coordinate
        # (e.g. a clip to an integer frame width) would otherwise serialise
        # as `1280` sequentially but `1280.0` after the round-trip.
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "y_min", float(self.y_min))
        object.__setattr__(self, "x_max", float(self.x_max))
        object.__setattr__(self, "y_max", float(self.y_max))
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(
                f"invalid box: ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def width(self) -> float:
        """Box width in pixels."""
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        """Box height in pixels."""
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        """Box area in square pixels."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Geometric centre of the box."""
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def contains_point(self, point: Point) -> bool:
        """Whether ``point`` lies inside the box (inclusive of edges)."""
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    def intersection(self, other: "BoundingBox") -> float:
        """Area of overlap with another box (zero when disjoint)."""
        overlap_w = min(self.x_max, other.x_max) - max(self.x_min, other.x_min)
        overlap_h = min(self.y_max, other.y_max) - max(self.y_min, other.y_min)
        if overlap_w <= 0 or overlap_h <= 0:
            return 0.0
        return overlap_w * overlap_h

    def union(self, other: "BoundingBox") -> float:
        """Area of the union with another box."""
        return self.area + other.area - self.intersection(other)

    def iou(self, other: "BoundingBox") -> float:
        """Intersection over union with another box, in ``[0, 1]``."""
        overlap = self.intersection(other)
        union = self.area + other.area - overlap
        if union == 0:
            return 0.0
        return overlap / union

    def intersects(self, other: "BoundingBox") -> bool:
        """Whether the two boxes overlap with positive area."""
        return self.intersection(other) > 0.0

    def clip_to(self, width: float, height: float) -> "BoundingBox":
        """Clip the box to an image of the given dimensions."""
        return BoundingBox(
            x_min=min(max(self.x_min, 0.0), width),
            y_min=min(max(self.y_min, 0.0), height),
            x_max=min(max(self.x_max, 0.0), width),
            y_max=min(max(self.y_max, 0.0), height),
        )

    def translate(self, dx: float, dy: float) -> "BoundingBox":
        """Return a copy shifted by ``(dx, dy)``."""
        return BoundingBox(
            self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy
        )

    def expand(self, margin: float) -> "BoundingBox":
        """Return a copy grown by ``margin`` pixels on every side."""
        return BoundingBox(
            self.x_min - margin,
            self.y_min - margin,
            self.x_max + margin,
            self.y_max + margin,
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(x_min, y_min, x_max, y_max)``."""
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    @classmethod
    def from_center(
        cls, center_x: float, center_y: float, width: float, height: float
    ) -> "BoundingBox":
        """Build a box from its centre point and dimensions."""
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(center_x - half_w, center_y - half_h, center_x + half_w, center_y + half_h)
