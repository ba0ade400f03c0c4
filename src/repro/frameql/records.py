"""FrameQL records as columns: the rows a selection or exact query returns.

The FrameQL relation is virtual (Section 4): a plan populates rows only
when it needs them, and a query that returns rows returns them as a
:class:`RecordTable` — the selected detection rows gathered into one compact
:class:`~repro.detection.columnar.DetectionBatch` (one frame per row, in
record order) plus the rows' resolved track ids.  ``len()``, slicing, the
frame-index column, row masks, equality between tables and the wire form
read the columns; a :class:`~repro.frameql.schema.FrameRecord` is built only
when a caller indexes or iterates the table.

On the wire (protocol v2) a table is the columns of
:meth:`~repro.detection.columnar.DetectionBatch.to_arrays` but the per-frame
offsets and detector track ids, plus its own track ids: base64 of each numeric
column's little-endian bytes, the compacted sorted string tables as lists, and
``n``.  Absent colours and negative zeros are written as zeros, so equal
tables encode to equal bytes.  Decoding and :meth:`RecordTable.from_records`
check whole columns and raise :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import base64
import operator
from collections.abc import Iterable, Iterator, Sequence
from typing import Any, overload

import numpy as np

from repro import wire
from repro.detection.base import Detection, DetectionResult
from repro.detection.columnar import DetectionBatch
from repro.errors import ConfigurationError
from repro.frameql.schema import FrameRecord

__all__ = ["RecordTable"]

#: The track-id column's ``None``; a record's track id is any other int64.
NO_TRACK = int(np.iinfo(np.int64).min)

#: The wire columns in ``FrameRecord`` field order: (key, dtype, values per
#: record).  ``features_flat`` has no fixed width; ``feature_len`` sizes it.
_COLUMNS: tuple[tuple[str, type[np.generic], int | None], ...] = (
    ("timestamp", np.float64, 1),
    ("frame_index", np.int64, 1),
    ("class_code", np.int32, 1),
    ("box", np.float64, 4),
    ("track_id", np.int64, 1),
    ("feature_len", np.int32, 1),
    ("features_flat", np.float64, None),
    ("confidence", np.float64, 1),
    ("color", np.float64, 3),
    ("has_color", np.bool_, 1),
    ("color_name_code", np.int32, 1),
)
_TABLES = ("class_table", "color_name_table")
_KEYS = frozenset({"n", *_TABLES, *(key for key, _, _ in _COLUMNS)})


def _track_id(value: int | None) -> int:
    if value is None:
        return NO_TRACK
    track = operator.index(value)
    if track == NO_TRACK:
        raise ValueError(f"track id {track} is outside the track-id column's range")
    return track


def _encode_column(values: np.ndarray, dtype: type[np.generic]) -> str:
    column = np.asarray(values, dtype=dtype)
    if column.dtype.kind == "f":
        column = column + 0.0  # -0.0 + 0.0 is 0.0: equal columns, equal bytes
    little_endian = column.astype(np.dtype(dtype).newbyteorder("<"), copy=False)
    return base64.b64encode(little_endian.tobytes()).decode("ascii")


def _decode_column(
    key: str, text: object, dtype: type[np.generic], n: int, width: int | None
) -> np.ndarray:
    raw = base64.b64decode(wire.expect(str, text), validate=True)
    size, remainder = divmod(len(raw), np.dtype(dtype).itemsize)
    if remainder or (width is not None and size != n * width):
        raise ValueError(f"column {key!r} has {len(raw)} bytes for {n} records")
    column = np.frombuffer(raw, dtype=np.dtype(dtype).newbyteorder("<")).astype(dtype)
    return column.reshape(n, width) if width is not None and width > 1 else column


def _outside(codes: np.ndarray, low: int, high: int) -> bool:
    return bool(((codes < low) | (codes >= high)).any())


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
        records = list(records)
        try:
            # The track ids go in the table's int64 column, not the batch's.
            detections = [
                Detection(
                    r.frame_index, r.timestamp, r.object_class, r.mask, r.confidence,
                    r.features, None, r.color, r.color_name,
                )
                for r in records
            ]
            batch = DetectionBatch.from_detections(
                [DetectionResult(d.frame_index, d.timestamp, [d]) for d in detections]
            )
            track_id = np.asarray([_track_id(r.trackid) for r in records], dtype=np.int64)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigurationError(f"malformed FrameRecord: {exc}") from None
        return cls._checked(batch, track_id)

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

    def to_wire(self) -> dict[str, Any]:
        """The table's columns, in the wire form the module doc describes."""
        batch = self.batch.compacted()
        columns = {key: getattr(batch, key) for key, _, _ in _COLUMNS if key != "track_id"}
        columns["track_id"] = self.track_id
        columns["color"] = np.where(batch.has_color[:, None], batch.color, 0.0)
        payload: dict[str, Any] = {"n": len(self)}
        for key, dtype, _ in _COLUMNS:
            payload[key] = _encode_column(columns[key], dtype)
        for key in _TABLES:
            payload[key] = list(getattr(batch, key))
        return payload

    @classmethod
    def from_wire(cls, payload: Any) -> RecordTable:
        """The table of a :meth:`to_wire` payload, checked column by column."""
        if wire.expect(dict, payload).keys() != _KEYS:
            raise ConfigurationError(
                f"record table has unknown keys {sorted(payload.keys() - _KEYS)} and "
                f"lacks keys {sorted(_KEYS - payload.keys())}; valid keys: {sorted(_KEYS)}"
            )
        n = wire.expect(int, payload["n"])
        if n < 0:
            raise ConfigurationError(f"record table of {n} rows")
        try:
            columns: dict[str, Any] = {
                key: _decode_column(key, payload[key], dtype, n, width)
                for key, dtype, width in _COLUMNS
            }
        except ValueError as exc:  # binascii.Error is one
            raise ConfigurationError(f"malformed record table: {exc}") from None
        track_id = columns.pop("track_id")
        batch = DetectionBatch(
            **columns,
            offsets=np.arange(n + 1, dtype=np.int64),
            class_table=tuple(wire.expect(list, payload["class_table"])),
            color_name_table=tuple(wire.expect(list, payload["color_name_table"])),
            track_id=np.full(n, -1, dtype=np.int32),
        )
        return cls._checked(batch, track_id)

    @classmethod
    def _checked(cls, batch: DetectionBatch, track_id: np.ndarray) -> RecordTable:
        """The table of ``batch``'s rows, once its columns hold records."""
        for name in (*batch.class_table, *batch.color_name_table):
            wire.expect(str, name)
        box, lengths = batch.box, batch.feature_len
        failures = {
            "a class code out of range": _outside(batch.class_code, 0, len(batch.class_table)),
            "a colour-name code out of range": _outside(
                batch.color_name_code, -1, len(batch.color_name_table)
            ),
            "feature lengths that miss the feature column": (lengths < -1).any()
            or np.maximum(lengths, 0).sum() != batch.features_flat.size,
            "an invalid box": ((box[:, 2] < box[:, 0]) | (box[:, 3] < box[:, 1])).any(),
            "a has_color other than 0 or 1": (batch.has_color.view(np.uint8) > 1).any(),
        }
        for problem, failed in failures.items():
            if failed:
                raise ConfigurationError(f"malformed record table: {problem}")
        return cls(batch, track_id)
