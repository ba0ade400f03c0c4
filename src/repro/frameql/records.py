"""FrameQL records as columns: the rows a selection or exact query returns.

The FrameQL relation is virtual (Section 4): a plan populates rows only
when it needs them, and a query that returns rows returns them as a
:class:`RecordTable` — the selected detection rows gathered into one compact
:class:`~repro.detection.columnar.DetectionBatch` (one frame per row, in
record order) plus the rows' resolved track ids.  ``len()``, slicing, the
frame-index column, row masks, equality between tables and the wire form
read the columns; a :class:`~repro.frameql.schema.FrameRecord` is built only
when a caller indexes or iterates the table.

On the wire a table is the list of its records, exactly as the codec writes
a ``FrameRecord`` (same keys in field order, same values), built column by
column; decoding builds the columns and rejects what the ``FrameRecord``
decoder rejects.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator, Sequence
from typing import Any, overload

import numpy as np

from repro import wire
from repro.detection.columnar import DetectionBatch
from repro.errors import ConfigurationError
from repro.frameql.schema import FrameRecord

__all__ = ["RecordTable"]

#: The track-id column's ``None``; a record's track id is any other int64.
NO_TRACK = int(np.iinfo(np.int64).min)

_FIELDS = tuple(f.name for f in dataclasses.fields(FrameRecord))
_KNOWN = frozenset(_FIELDS)
_REQUIRED = tuple(
    f.name for f in dataclasses.fields(FrameRecord) if f.default is dataclasses.MISSING
)
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(FrameRecord) if f.name not in _REQUIRED}


def _track_id(value: Any) -> int:
    if value is None:
        return NO_TRACK
    if wire.expect(int, value) == NO_TRACK:
        raise ValueError(f"track id {value} is outside the track-id column's range")
    return value


def _names(table: tuple[str, ...], codes: np.ndarray) -> list[str | None]:
    return [None if code < 0 else table[code] for code in codes.tolist()]


class RecordTable(Sequence[FrameRecord]):
    """A read-only sequence of FrameQL records held as columns.

    ``batch`` holds one frame per record (its frame index and timestamp) with
    that record's one detection; ``track_id`` is the records' int64 track
    ids, :data:`NO_TRACK` standing for ``None``.  Neither is ever written
    after construction.
    """

    __slots__ = ("batch", "track_id")

    def __init__(self, batch: DetectionBatch, track_id: np.ndarray) -> None:
        self.batch = batch
        self.track_id = track_id

    # -- construction ---------------------------------------------------------

    @classmethod
    def empty(cls) -> RecordTable:
        """A table of no records."""
        return cls(DetectionBatch.empty(), np.zeros(0, dtype=np.int64))

    @classmethod
    def from_records(cls, records: Iterable[FrameRecord]) -> RecordTable:
        """A table of hand-built records, checked as a wire payload is."""
        return cls.from_wire([wire.encode(record) for record in records])

    # -- reading --------------------------------------------------------------

    @property
    def frame_index(self) -> np.ndarray:
        """Each record's frame, ``(n,) int64``."""
        return self.batch.frame_index

    def take(self, rows: np.ndarray) -> RecordTable:
        """The records at positions ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        return RecordTable(self.batch.gather(rows), self.track_id[rows])

    def select(self, mask: np.ndarray) -> RecordTable:
        """The records a boolean row mask keeps."""
        return self.take(np.flatnonzero(mask))

    def __len__(self) -> int:
        return int(self.track_id.size)

    @overload
    def __getitem__(self, index: int) -> FrameRecord: ...

    @overload
    def __getitem__(self, index: slice) -> RecordTable: ...

    def __getitem__(self, index: int | slice) -> FrameRecord | RecordTable:
        positions = np.arange(len(self))
        if isinstance(index, slice):
            return self.take(positions[index])
        row = positions[index : index + 1 or None]
        if row.size == 0:
            raise IndexError("record index out of range")
        return next(self._records(row))

    def __iter__(self) -> Iterator[FrameRecord]:
        return self._records(np.arange(len(self)))

    def _records(self, rows: np.ndarray) -> Iterator[FrameRecord]:
        """One ``FrameRecord`` per row, built as it is read."""
        for trackid, (
            frame, stamp, object_class, box, confidence, features, _, color, color_name,
        ) in zip(self.track_id[rows].tolist(), self.batch.row_fields(rows), strict=True):
            yield FrameRecord(
                timestamp=stamp,
                frame_index=frame,
                object_class=object_class,
                mask=box,
                trackid=None if trackid == NO_TRACK else trackid,
                features=features,
                confidence=confidence,
                color=color,
                color_name=color_name,
            )

    def __eq__(self, other: object) -> bool:
        """Column by column against a table, record by record against any
        other sequence."""
        if isinstance(other, RecordTable):
            return self._columns_equal(other)
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def _columns_equal(self, other: RecordTable) -> bool:
        a, b = self.batch, other.batch
        return (
            np.array_equal(self.track_id, other.track_id)
            and np.array_equal(a.frame_index, b.frame_index)
            and np.array_equal(a.timestamp, b.timestamp)
            and _names(a.class_table, a.class_code) == _names(b.class_table, b.class_code)
            and np.array_equal(a.box, b.box)
            and np.array_equal(a.confidence, b.confidence)
            and np.array_equal(a.feature_len, b.feature_len)
            and np.array_equal(a.features_flat, b.features_flat)
            and np.array_equal(a.has_color, b.has_color)
            and np.array_equal(a.color[a.has_color], b.color[b.has_color])
            and _names(a.color_name_table, a.color_name_code)
            == _names(b.color_name_table, b.color_name_code)
        )

    def __repr__(self) -> str:
        return repr(list(self))

    # -- wire form ------------------------------------------------------------

    def to_wire(self) -> list[dict[str, Any]]:
        """The records as ``wire.encode`` writes each, one ``tolist()`` per
        column."""
        b = self.batch
        classes = b.class_table
        color_names = b.color_name_table
        flat = b.features_flat.tolist()
        return [
            {
                "timestamp": stamp,
                "frame_index": frame,
                "object_class": classes[code],
                "mask": box,
                "trackid": None if trackid == NO_TRACK else trackid,
                "features": None if n_feat < 0 else flat[start : start + n_feat],
                "confidence": confidence,
                "color": color if has_color else None,
                "color_name": None if name < 0 else color_names[name],
            }
            for stamp, frame, code, box, trackid, n_feat, start, confidence, color, has_color,
            name in zip(
                b.timestamp.tolist(),
                b.frame_index.tolist(),
                b.class_code.tolist(),
                b.box.tolist(),
                self.track_id.tolist(),
                b.feature_len.tolist(),
                b.feature_start.tolist()[:-1],
                b.confidence.tolist(),
                b.color.tolist(),
                b.has_color.tolist(),
                b.color_name_code.tolist(),
                strict=True,
            )
        ]

    @classmethod
    def from_wire(cls, payload: Any) -> RecordTable:
        """The table of a list of record objects, built column by column."""
        rows = wire.expect(list, payload)
        for row in rows:
            if not isinstance(row, dict):
                raise ConfigurationError(f"FrameRecord must be a JSON object, got {row!r}")
            if row.keys() != _KNOWN:
                unknown = row.keys() - _KNOWN
                if unknown:
                    raise ConfigurationError(
                        f"unknown FrameRecord fields {sorted(unknown)}; "
                        f"valid fields: {sorted(_KNOWN)}"
                    )
                for name in _REQUIRED:
                    if name not in row:
                        raise ConfigurationError(f"FrameRecord needs field {name!r}")
        try:
            return cls._from_columns(
                {name: [row.get(name, _DEFAULTS.get(name)) for row in rows] for name in _FIELDS}
            )
        except (ValueError, OverflowError) as exc:
            raise ConfigurationError(f"malformed FrameRecord: {exc}") from None

    @classmethod
    def _from_columns(cls, columns: dict[str, list[Any]]) -> RecordTable:
        n = len(columns["timestamp"])
        timestamp = [wire.expect_number(value) for value in columns["timestamp"]]
        frame_index = [wire.expect(int, value) for value in columns["frame_index"]]
        class_index: dict[str, int] = {}
        class_code = [
            class_index.setdefault(wire.expect(str, value), len(class_index))
            for value in columns["object_class"]
        ]
        box = np.asarray(
            [wire.expect_numbers(wire.expect_values(value, 4)) for value in columns["mask"]],
            dtype=np.float64,
        ).reshape(n, 4)
        invalid = np.flatnonzero((box[:, 2] < box[:, 0]) | (box[:, 3] < box[:, 1]))
        if invalid.size:
            raise ValueError(f"invalid box: {tuple(box[invalid[0]].tolist())}")
        track_id = [_track_id(value) for value in columns["trackid"]]
        features = [
            None if value is None else wire.expect_numbers(value)
            for value in columns["features"]
        ]
        feature_len = [-1 if vector is None else len(vector) for vector in features]
        confidence = [wire.expect_number(value) for value in columns["confidence"]]
        colors = [
            None if value is None else wire.expect_numbers(wire.expect_values(value, 3))
            for value in columns["color"]
        ]
        color_name_index: dict[str, int] = {}
        color_name_code = [
            -1
            if value is None
            else color_name_index.setdefault(wire.expect(str, value), len(color_name_index))
            for value in columns["color_name"]
        ]
        batch = DetectionBatch(
            frame_index=np.asarray(frame_index, dtype=np.int64),
            timestamp=np.asarray(timestamp, dtype=np.float64),
            offsets=np.arange(n + 1, dtype=np.int64),
            class_code=np.asarray(class_code, dtype=np.int32),
            class_table=tuple(class_index),
            box=box,
            confidence=np.asarray(confidence, dtype=np.float64),
            feature_len=np.asarray(feature_len, dtype=np.int32),
            features_flat=np.asarray(
                [x for vector in features if vector is not None for x in vector],
                dtype=np.float64,
            ),
            color=np.asarray(
                [(0.0, 0.0, 0.0) if color is None else color for color in colors],
                dtype=np.float64,
            ).reshape(n, 3),
            has_color=np.asarray([color is not None for color in colors], dtype=np.bool_),
            color_name_code=np.asarray(color_name_code, dtype=np.int32),
            color_name_table=tuple(color_name_index),
            track_id=np.full(n, -1, dtype=np.int32),
        )
        return cls(batch, np.asarray(track_id, dtype=np.int64))
