"""Detections as columns: the one storage form of detector output.

A :class:`DetectionBatch` holds every detection of a batch of frames as a
handful of flat numpy arrays (struct of arrays, rows grouped per frame by CSR
offsets).  It is the one type that crosses every internal boundary: the
simulated detector's kernel emits one per call, the index decodes a gathered
window into one, the process-backend transport ships one, the shared cache
and the prefetcher answer with one, and the source cascade assembles a
request from those answers (:meth:`DetectionBatch.assemble`).  Consumers read
columns: the IoU tracker scores boxes as arrays, selection's predicates are
one row mask, counts are :meth:`DetectionBatch.class_counts`, and a query's
FrameQL records are a :class:`~repro.frameql.records.RecordTable` over the
selected rows (:meth:`DetectionBatch.gather`).

A batch is also a ``Sequence`` of per-frame
:class:`~repro.detection.base.DetectionResult` views, for callers that want
one frame at a time (custom detectors, tests): indexing or iterating builds a
result whose ``detections`` are a :class:`DetectionRows` view, which reads
``len()`` and class counts off the columns and builds
:class:`~repro.detection.base.Detection` objects only when iterated.  Nothing
on the query path does either, so a query builds a ``Detection`` only for a
UDF predicate's rows.

:meth:`DetectionBatch.to_arrays` (through :func:`encode_detection_results`)
is the persisted and transported form: the batch's columns with both string
tables compacted to the values present and sorted, so equal detections
always encode to equal bytes (index segments, npz cache snapshots, shm
payloads, and — one frame per record, each column as base64 of its
little-endian bytes — a record table on the service's wire).
:func:`decode_detection_results` is its inverse; it copies every column that
does not own its memory, so nothing decoded keeps an index map or a
shared-memory slot alive.

Layout (``n_frames`` frames holding ``n_det`` detections total):

========================  ======================  =================================
array                     shape / dtype           meaning
========================  ======================  =================================
``frame_index``           ``(n_frames,) int64``   frame of each result
``timestamp``             ``(n_frames,) float64`` timestamp of each result
``det_offsets``           ``(n_frames+1,) int64`` CSR offsets into detection arrays
``class_code``            ``(n_det,) int32``      index into ``class_table``
``class_table``           ``(k,) <U``             distinct object classes
``box``                   ``(n_det, 4) float64``  x_min, y_min, x_max, y_max
``confidence``            ``(n_det,) float64``    detector confidence
``feature_len``           ``(n_det,) int32``      feature dims, ``-1`` for ``None``
``features_flat``         ``(sum,) float64``      concatenated feature vectors
``color``                 ``(n_det, 3) float64``  RGB, zeros when absent
``has_color``             ``(n_det,) bool``       whether ``color`` is present
``color_name_code``       ``(n_det,) int32``      index into table, ``-1`` = ``None``
``color_name_table``      ``(m,) <U``             distinct color names
``track_id``              ``(n_det,) int32``      track id, ``-1`` = ``None``
========================  ======================  =================================

In memory the two tables are tuples in any order (the detector's kernel uses
the video's first-seen order); only the encoded form sorts them.
"""

from __future__ import annotations

import io
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import overload

import numpy as np

from repro.detection.base import Detection, DetectionResult
from repro.errors import ConfigurationError
from repro.video.geometry import BoundingBox

__all__ = [
    "DetectionBatch",
    "DetectionRows",
    "concatenated_runs",
    "run_offsets",
    "encode_detection_results",
    "decode_detection_results",
    "encode_to_bytes",
    "decode_from_bytes",
]


def _owned(values: np.ndarray) -> np.ndarray:
    """``values``, copied unless it owns its memory (a map, a bytes view)."""
    return values if values.flags.owndata else values.copy()


def _merge_tables(
    tables: Sequence[tuple[str, ...]],
) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Union of string tables (first-seen order) and each table's code map.

    A map has one extra trailing ``-1`` so that code ``-1`` ("absent") maps
    to itself.
    """
    merged: dict[str, int] = {}
    maps = []
    for table in tables:
        codes = [merged.setdefault(name, len(merged)) for name in table]
        maps.append(np.asarray([*codes, -1], dtype=np.int32))
    return tuple(merged), maps


def _compact_table(
    table: tuple[str, ...], codes: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted table of the names ``codes`` use, and codes into it."""
    used = np.unique(codes[codes >= 0]).tolist()
    names = sorted(table[code] for code in used)
    position = {name: i for i, name in enumerate(names)}
    remap = np.full(len(table) + 1, -1, dtype=np.int32)
    for code in used:
        remap[code] = position[table[code]]
    return tuple(names), remap[codes]


def run_offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs: ``[0, l0, l0 + l1, ...]``."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    lengths.cumsum(out=offsets[1:])
    return offsets


def concatenated_runs(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``concatenate([arange(s, s + n) ...])`` without the Python loop, and
    the offsets of each run in it."""
    offsets = run_offsets(lengths)
    rows = np.repeat(starts - offsets[:-1], lengths) + np.arange(
        offsets[-1], dtype=np.int64
    )
    return rows, offsets


@dataclass(eq=False, slots=True)
class DetectionBatch(Sequence[DetectionResult]):
    """The detections of a batch of frames, as columns (see the module doc).

    As a ``Sequence`` its length is the number of frames (so an empty batch
    is falsy) and ``batch[i]`` is frame ``i``'s result, a view of its rows.

    A batch is never written after it is built: caches, index windows and
    every consumer share it.  The private fields memoise two derived columns
    (the class codes as a list, the feature offsets); building one twice in
    a race is harmless.
    """

    frame_index: np.ndarray
    timestamp: np.ndarray
    offsets: np.ndarray
    class_code: np.ndarray
    class_table: tuple[str, ...]
    box: np.ndarray
    confidence: np.ndarray
    feature_len: np.ndarray
    features_flat: np.ndarray
    color: np.ndarray
    has_color: np.ndarray
    color_name_code: np.ndarray
    color_name_table: tuple[str, ...]
    track_id: np.ndarray
    _class_codes: list[int] | None = field(default=None, init=False, repr=False)
    _feature_start: np.ndarray | None = field(default=None, init=False, repr=False)

    # -- construction ---------------------------------------------------------

    @classmethod
    def empty(cls) -> DetectionBatch:
        """A batch of no frames (one shared instance: batches are never
        written)."""
        return _NO_FRAMES

    @classmethod
    def from_detections(cls, results: Sequence[DetectionResult]) -> DetectionBatch:
        """Columns of results whose detections are objects (one pass each)."""
        detections = [d for result in results for d in result.detections]
        n_det = len(detections)
        class_index: dict[str, int] = {}
        color_name_index: dict[str, int] = {}
        class_code = np.zeros(n_det, dtype=np.int32)
        box = np.zeros((n_det, 4), dtype=np.float64)
        confidence = np.zeros(n_det, dtype=np.float64)
        feature_len = np.full(n_det, -1, dtype=np.int32)
        color = np.zeros((n_det, 3), dtype=np.float64)
        has_color = np.zeros(n_det, dtype=np.bool_)
        color_name_code = np.full(n_det, -1, dtype=np.int32)
        track_id = np.full(n_det, -1, dtype=np.int32)
        feature_chunks: list[np.ndarray] = []
        for i, det in enumerate(detections):
            class_code[i] = class_index.setdefault(det.object_class, len(class_index))
            box[i] = (det.box.x_min, det.box.y_min, det.box.x_max, det.box.y_max)
            confidence[i] = det.confidence
            if det.features is not None:
                feature_len[i] = det.features.size
                feature_chunks.append(np.asarray(det.features, dtype=np.float64).ravel())
            if det.color is not None:
                has_color[i] = True
                color[i] = det.color
            if det.color_name is not None:
                color_name_code[i] = color_name_index.setdefault(
                    det.color_name, len(color_name_index)
                )
            if det.track_id is not None:
                track_id[i] = det.track_id
        return cls(
            frame_index=np.asarray([r.frame_index for r in results], dtype=np.int64),
            timestamp=np.asarray([r.timestamp for r in results], dtype=np.float64),
            offsets=run_offsets(
                np.asarray([len(r.detections) for r in results], dtype=np.int64)
            ),
            class_code=class_code,
            class_table=tuple(class_index),
            box=box,
            confidence=confidence,
            feature_len=feature_len,
            features_flat=(
                np.concatenate(feature_chunks)
                if feature_chunks
                else np.zeros(0, dtype=np.float64)
            ),
            color=color,
            has_color=has_color,
            color_name_code=color_name_code,
            color_name_table=tuple(color_name_index),
            track_id=track_id,
        )

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> DetectionBatch:
        """A batch of the encoded columns (copied unless they own their memory)."""
        return cls(
            frame_index=_owned(arrays["frame_index"]),
            timestamp=_owned(arrays["timestamp"]),
            offsets=_owned(arrays["det_offsets"]),
            class_code=_owned(arrays["class_code"]),
            class_table=tuple(arrays["class_table"].tolist()),
            box=_owned(arrays["box"]),
            confidence=_owned(arrays["confidence"]),
            feature_len=_owned(arrays["feature_len"]),
            features_flat=_owned(arrays["features_flat"]),
            color=_owned(arrays["color"]),
            has_color=_owned(arrays["has_color"]),
            color_name_code=_owned(arrays["color_name_code"]),
            color_name_table=tuple(arrays["color_name_table"].tolist()),
            track_id=_owned(arrays["track_id"]),
        )

    @classmethod
    def concat(cls, batches: Sequence[DetectionBatch]) -> DetectionBatch:
        """Frames of every batch, in order, over merged string tables (one
        batch is returned as is)."""
        if len(batches) <= 1:
            return batches[0] if batches else cls.empty()
        class_table, class_maps = _merge_tables([b.class_table for b in batches])
        color_table, color_maps = _merge_tables([b.color_name_table for b in batches])
        offsets = run_offsets(np.concatenate([np.diff(b.offsets) for b in batches]))

        def stack(column: str) -> np.ndarray:
            return np.concatenate([getattr(b, column) for b in batches])

        return cls(
            frame_index=stack("frame_index"),
            timestamp=stack("timestamp"),
            offsets=offsets,
            class_code=np.concatenate(
                [m[b.class_code] for m, b in zip(class_maps, batches, strict=True)]
            ),
            class_table=class_table,
            box=stack("box"),
            confidence=stack("confidence"),
            feature_len=stack("feature_len"),
            features_flat=stack("features_flat"),
            color=stack("color"),
            has_color=stack("has_color"),
            color_name_code=np.concatenate(
                [m[b.color_name_code] for m, b in zip(color_maps, batches, strict=True)]
            ),
            color_name_table=color_table,
            track_id=stack("track_id"),
        )

    @classmethod
    def assemble(
        cls, batches: Sequence[DetectionBatch], which: np.ndarray, rows: np.ndarray
    ) -> DetectionBatch:
        """One batch whose frame ``i`` is frame row ``rows[i]`` of
        ``batches[which[i]]`` (repeats allowed).

        Each source is gathered once (:meth:`take`) and the pieces are
        concatenated, so a request one source answered entirely, in order,
        comes back as that batch.
        """
        which = np.asarray(which, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        if which.size == 0:
            return cls.empty()
        if which.min() < 0:  # a source answered fewer frames than it was asked
            raise IndexError("a requested frame is in none of the batches")
        if (which == which[0]).all():
            return batches[int(which[0])].take(rows)
        order = np.argsort(which, kind="stable")
        grouped = which[order]
        bounds = (np.flatnonzero(np.diff(grouped)) + 1).tolist()
        assembled = cls.concat(
            [
                batches[int(grouped[lo])].take(rows[order[lo:hi]])
                for lo, hi in zip([0, *bounds], [*bounds, which.size], strict=True)
            ]
        )
        if (order == np.arange(order.size)).all():
            return assembled
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        return assembled.take(position)

    def take(self, frame_rows: Sequence[int] | np.ndarray) -> DetectionBatch:
        """The given frames (rows of this batch, in the given order, repeats
        allowed): this batch itself when that is every frame in order, else a
        new batch owning copies of their rows."""
        rows = np.asarray(frame_rows, dtype=np.int64)
        if rows.size == self.num_frames and (rows == np.arange(rows.size)).all():
            return self
        starts = self.offsets[rows]
        det_rows, offsets = concatenated_runs(starts, self.offsets[rows + 1] - starts)
        return self._gather(det_rows, self.frame_index[rows], self.timestamp[rows], offsets)

    def gather(self, rows: np.ndarray) -> DetectionBatch:
        """A new batch owning copies of the detection ``rows``, in the given
        order, each its own frame (labelled with its frame's index and
        timestamp)."""
        rows = np.asarray(rows, dtype=np.int64)
        frame_rows = self.frame_rows(rows)
        return self._gather(
            rows,
            self.frame_index[frame_rows],
            self.timestamp[frame_rows],
            np.arange(rows.size + 1, dtype=np.int64),
        )

    def _gather(
        self,
        det_rows: np.ndarray,
        frame_index: np.ndarray,
        timestamp: np.ndarray,
        offsets: np.ndarray,
    ) -> DetectionBatch:
        """A batch of copies of ``det_rows`` over the given frame columns."""
        feature_len = self.feature_len[det_rows]
        features = self.features_flat[
            concatenated_runs(self.feature_start[det_rows], np.maximum(feature_len, 0))[0]
        ]
        return DetectionBatch(
            frame_index=frame_index,
            timestamp=timestamp,
            offsets=offsets,
            class_code=self.class_code[det_rows],
            class_table=self.class_table,
            box=self.box[det_rows],
            confidence=self.confidence[det_rows],
            feature_len=feature_len,
            features_flat=features,
            color=self.color[det_rows],
            has_color=self.has_color[det_rows],
            color_name_code=self.color_name_code[det_rows],
            color_name_table=self.color_name_table,
            track_id=self.track_id[det_rows],
        )

    # -- reading --------------------------------------------------------------

    @property
    def num_frames(self) -> int:
        """Number of frames in the batch."""
        return int(self.frame_index.shape[0])

    @property
    def feature_start(self) -> np.ndarray:
        """``(n_det + 1,)`` CSR offsets of each detection's feature span."""
        start = self._feature_start
        if start is None:
            start = self._feature_start = run_offsets(np.maximum(self.feature_len, 0))
        return start

    def __len__(self) -> int:
        return int(self.frame_index.shape[0])

    @overload
    def __getitem__(self, index: int) -> DetectionResult: ...

    @overload
    def __getitem__(self, index: slice) -> DetectionBatch: ...

    def __getitem__(self, index: int | slice) -> DetectionResult | DetectionBatch:
        """Frame ``index``'s result (a view of its rows); a slice's frames
        as a new batch."""
        if isinstance(index, slice):
            return self.take(np.arange(self.num_frames)[index])
        row = range(self.num_frames)[index]
        start, stop = self.offsets[row : row + 2].tolist()
        return DetectionResult(
            int(self.frame_index[row]), float(self.timestamp[row]), DetectionRows(self, start, stop)
        )

    def __iter__(self) -> Iterator[DetectionResult]:
        offsets = self.offsets.tolist()
        for frame, stamp, start, stop in zip(
            self.frame_index.tolist(), self.timestamp.tolist(), offsets[:-1], offsets[1:],
            strict=True,
        ):
            yield DetectionResult(frame, stamp, DetectionRows(self, start, stop))

    def class_codes(self) -> list[int]:
        """``class_code`` as a Python list (memoised)."""
        if self._class_codes is None:
            codes: list[int] = self.class_code.tolist()
            self._class_codes = codes
            return codes
        return self._class_codes

    def class_counts(self, object_class: str) -> np.ndarray:
        """Per-frame count of one class, ``(n_frames,) int64``."""
        if object_class not in self.class_table:
            return np.zeros(self.num_frames, dtype=np.int64)
        return self.frame_counts(self.class_code == self.class_table.index(object_class))

    def present_classes(self) -> set[str]:
        """The classes of at least one detection."""
        return {self.class_table[code] for code in np.unique(self.class_code).tolist()}

    def frame_counts(self, row_mask: np.ndarray) -> np.ndarray:
        """Per-frame number of rows ``row_mask`` selects, ``(n_frames,) int64``."""
        cumulative = np.concatenate([[0], np.cumsum(row_mask, dtype=np.int64)])
        return cumulative[self.offsets[1:]] - cumulative[self.offsets[:-1]]

    def frame_rows(self, rows: np.ndarray) -> np.ndarray:
        """The frame row each of ``rows`` belongs to, ``int64``."""
        return np.searchsorted(self.offsets, rows, side="right") - 1

    def area(self) -> np.ndarray:
        """Every row's box area, with ``BoundingBox.area``'s arithmetic."""
        box = self.box
        return (box[:, 2] - box[:, 0]) * (box[:, 3] - box[:, 1])

    def row_fields(self, rows: np.ndarray) -> Iterator[tuple]:
        """The Python values of ``rows``, one tuple per row in ``Detection``
        field order (frame, timestamp, class, box, confidence, features,
        track id, colour, colour name).

        Only these rows are converted, so nothing but the values outlives
        the call; each feature vector is a fresh copy.
        """
        rows = np.asarray(rows, dtype=np.int64)
        frame_rows = self.frame_rows(rows)
        class_code = self.class_codes()
        class_table = self.class_table
        color_name_table = self.color_name_table
        features_flat = self.features_flat
        for (
            i, frame, stamp, box, confidence, n_feat, start_feat, color, has_color,
            color_name, track,
        ) in zip(
            rows.tolist(),
            self.frame_index[frame_rows].tolist(),
            self.timestamp[frame_rows].tolist(),
            self.box[rows].tolist(),
            self.confidence[rows].tolist(),
            self.feature_len[rows].tolist(),
            self.feature_start[rows].tolist(),
            self.color[rows].tolist(),
            self.has_color[rows].tolist(),
            self.color_name_code[rows].tolist(),
            self.track_id[rows].tolist(),
            strict=True,
        ):
            yield (
                frame,
                stamp,
                class_table[class_code[i]],
                BoundingBox(*box),
                confidence,
                None if n_feat < 0 else features_flat[start_feat : start_feat + n_feat].copy(),
                None if track < 0 else track,
                (color[0], color[1], color[2]) if has_color else None,
                None if color_name < 0 else color_name_table[color_name],
            )

    def objects(self, rows: np.ndarray) -> list[Detection]:
        """``Detection`` objects of ``rows`` (see :meth:`row_fields`)."""
        return [Detection(*fields) for fields in self.row_fields(rows)]

    def compacted(self) -> DetectionBatch:
        """This batch over string tables compacted to the names its rows use
        and sorted: the tables of the encoded layout."""
        class_table, class_code = _compact_table(self.class_table, self.class_code)
        color_name_table, color_name_code = _compact_table(
            self.color_name_table, self.color_name_code
        )
        return replace(
            self,
            class_code=class_code,
            class_table=class_table,
            color_name_code=color_name_code,
            color_name_table=color_name_table,
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The encoded layout: C-ordered columns, compacted sorted tables."""
        compact = self.compacted()
        for name in (*compact.class_table, *compact.color_name_table):
            if name.endswith("\x00"):  # a numpy string array would drop it
                raise ConfigurationError(f"detection name {name!r} ends in NUL")
        return {
            "frame_index": np.ascontiguousarray(self.frame_index, dtype=np.int64),
            "timestamp": np.ascontiguousarray(self.timestamp, dtype=np.float64),
            "det_offsets": np.ascontiguousarray(self.offsets, dtype=np.int64),
            "class_code": compact.class_code,
            "class_table": np.asarray(compact.class_table, dtype=np.str_),
            "box": np.ascontiguousarray(self.box, dtype=np.float64).reshape(-1, 4),
            "confidence": np.ascontiguousarray(self.confidence, dtype=np.float64),
            "feature_len": np.ascontiguousarray(self.feature_len, dtype=np.int32),
            "features_flat": np.ascontiguousarray(self.features_flat, dtype=np.float64),
            "color": np.ascontiguousarray(self.color, dtype=np.float64).reshape(-1, 3),
            "has_color": np.ascontiguousarray(self.has_color, dtype=np.bool_),
            "color_name_code": compact.color_name_code,
            "color_name_table": np.asarray(compact.color_name_table, dtype=np.str_),
            "track_id": np.ascontiguousarray(self.track_id, dtype=np.int32),
        }


_NO_FRAMES = DetectionBatch.from_detections([])


class DetectionRows(Sequence[Detection]):
    """One frame's detections as a row range of a :class:`DetectionBatch`.

    ``len()`` and :meth:`class_count` read the columns; iterating or
    indexing builds the frame's ``Detection`` objects once and keeps them,
    so repeated reads of one result see the same objects.
    """

    __slots__ = ("batch", "start", "stop", "_objects")

    def __init__(self, batch: DetectionBatch, start: int, stop: int) -> None:
        self.batch = batch
        self.start = start
        self.stop = stop
        self._objects: list[Detection] | None = None

    def __len__(self) -> int:
        return self.stop - self.start

    def class_count(self, object_class: str) -> int:
        """Number of rows of one class, from the class column."""
        table = self.batch.class_table
        if object_class not in table:
            return 0
        return self.batch.class_codes()[self.start : self.stop].count(table.index(object_class))

    def materialize(self) -> list[Detection]:
        """The rows as ``Detection`` objects (built on first use)."""
        objects = self._objects
        if objects is None:
            objects = self._objects = self.batch.objects(
                np.arange(self.start, self.stop, dtype=np.int64)
            )
        return objects

    @overload
    def __getitem__(self, index: int) -> Detection: ...

    @overload
    def __getitem__(self, index: slice) -> list[Detection]: ...

    def __getitem__(self, index: int | slice) -> Detection | list[Detection]:
        return self.materialize()[index]

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.materialize())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.materialize() == list(other)

    def __repr__(self) -> str:
        return repr(self.materialize())


def encode_detection_results(batch: DetectionBatch) -> dict[str, np.ndarray]:
    """Encode a batch as the flat column arrays documented in the module."""
    return batch.to_arrays()


def decode_detection_results(arrays: dict[str, np.ndarray]) -> DetectionBatch:
    """The batch of the encoded columns.

    Columns that do not own their memory (an mmap window, a shared-memory
    payload) are copied, so nothing decoded keeps the input alive.
    """
    return DetectionBatch.from_arrays(arrays)


def encode_to_bytes(batch: DetectionBatch) -> bytes:
    """Serialize a batch to an uncompressed npz payload (zip of .npy files)."""
    buffer = io.BytesIO()
    np.savez(buffer, **encode_detection_results(batch))
    return buffer.getvalue()


def decode_from_bytes(payload: bytes) -> DetectionBatch:
    """Inverse of :func:`encode_to_bytes`."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return decode_detection_results(arrays)

