"""The FrameQL data schema (Table 1).

Each record represents one object appearing in one frame; a frame may have
many or no records.  The schema is *virtual*: rows are populated lazily, only
when the chosen query plan actually needs them (Section 4), which is what
makes the optimizations possible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.video.geometry import BoundingBox


def fields_equal(a: object, b: object) -> bool:
    """Equality of two dataclass instances field by field, with array fields
    (feature vectors) compared by value rather than by numpy's ``==``."""
    for field in fields(a):
        x = getattr(a, field.name)
        y = getattr(b, field.name)
        if x is None or y is None:
            if x is not y:
                return False
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@dataclass(frozen=True)
class FrameQLField:
    """Description of one column of the FrameQL relation."""

    name: str
    type_name: str
    description: str


#: The schema of Table 1, plus the ``content`` field described in the schema
#: prose (the pixels contained by ``mask``).
FRAMEQL_SCHEMA: dict[str, FrameQLField] = {
    "timestamp": FrameQLField(
        "timestamp", "float", "Time stamp; one-to-one with frames of the video."
    ),
    "class": FrameQLField(
        "class", "string", "Object class (e.g., bus, car, person)."
    ),
    "mask": FrameQLField(
        "mask",
        "(float, float)*",
        "Polygon containing the object of interest, typically a rectangle.",
    ),
    "trackid": FrameQLField(
        "trackid",
        "int",
        "Unique identifier for a continuous time segment when the object is visible.",
    ),
    "content": FrameQLField(
        "content", "pixels", "The pixels contained by mask."
    ),
    "features": FrameQLField(
        "features", "float*", "The feature vector output by the object detection method."
    ),
}


def is_valid_column(name: str) -> bool:
    """Whether ``name`` is a column of the FrameQL schema."""
    return name in FRAMEQL_SCHEMA


@dataclass
class FrameRecord:
    """One materialised row of the FrameQL relation.

    Produced by query execution when the plan populates rows (e.g. selection
    queries); aggregation plans typically never materialise records at all.
    """

    timestamp: float
    frame_index: int
    object_class: str
    mask: BoundingBox
    trackid: int | None = None
    features: np.ndarray | None = None
    confidence: float = 1.0
    color: tuple[float, float, float] | None = None
    color_name: str | None = None

    def __eq__(self, other: object) -> bool:
        """Field-for-field equality, feature vectors compared by value."""
        if not isinstance(other, FrameRecord):
            return NotImplemented
        return fields_equal(self, other)

    def field(self, name: str):
        """Access a schema column by name (``class`` maps to ``object_class``)."""
        if name == "class":
            return self.object_class
        if name == "mask":
            return self.mask
        if name in ("timestamp", "trackid", "features"):
            return getattr(self, name)
        if name == "content":
            return self.color
        raise KeyError(f"unknown FrameQL column {name!r}")
