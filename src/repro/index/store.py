"""Persistent on-disk index: columnar detection segments behind a manifest.

Layout, one directory per ``(video, cache key)`` under the store root::

    <root>/<video-slug>/
        manifest.json              <- the commit point (atomic_write_text)
        gen-000001/
            seg-000000.<column>.npy   one plain .npy per columnar array,
            ...                       memory-mapped at read time
            sketch.npz                RangeSketch (exact per-range evidence)
            statistics.json           optional StatisticsCatalog entry

Builds are crash-safe by construction: a new generation is assembled in a
``gen-N.tmp`` directory (every file through ``persist.atomic_write_*``),
renamed into place, and only then does the manifest — itself atomically
replaced — start pointing at it.  A process killed at any moment leaves the
previous generation fully readable; stale ``.tmp`` directories and orphaned
generations are swept at the start of the next build.

Segments reuse the :mod:`repro.detection.columnar` wire format verbatim, one
plain ``.npy`` file per column so ``np.load(..., mmap_mode="r")`` can serve a
few frames without reading the segment.  A read is one call per batch
(:meth:`VideoIndex.results_for`): the requested frames are grouped by
segment, each segment's detection rows and feature spans are gathered out of
the mapped columns with one fancy index per column, and the gathered window
goes once to the same ``decode_detection_results`` the parallel transport
uses, so index reads are bit-for-bit identical to live detector output.  The
gather indexes by offsets read from disk, so a segment's columns are checked
against each other once, when they are first mapped: an inconsistent or
unreadable segment is a :class:`~repro.errors.ConfigurationError` naming the
file, never another frame's rows.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import shutil
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.catalog.statistics import VideoStatistics
from repro.detection.base import DetectionResult
from repro.detection.columnar import decode_detection_results
from repro.errors import ConfigurationError
from repro.index.sketches import RangeSketch
from repro.persist import atomic_write_bytes

MANIFEST_FORMAT = "video-index/v1"
MANIFEST_NAME = "manifest.json"
SKETCH_NAME = "sketch.npz"
STATISTICS_NAME = "statistics.json"

#: Default number of frames per columnar segment.
DEFAULT_SEGMENT_FRAMES = 512

#: Column order of the columnar wire format (``detection/columnar.py``).
SEGMENT_COLUMNS = (
    "frame_index",
    "timestamp",
    "det_offsets",
    "class_code",
    "class_table",
    "box",
    "confidence",
    "feature_len",
    "features_flat",
    "color",
    "has_color",
    "color_name_code",
    "color_name_table",
    "track_id",
)

# Detection-level columns: one row per detection, gathered through the CSR
# offsets when decoding a batch of frames.
_DET_COLUMNS = (
    "class_code",
    "box",
    "confidence",
    "feature_len",
    "color",
    "has_color",
    "color_name_code",
    "track_id",
)


def video_slug(video_name: str, cache_key: str) -> str:
    """Stable directory name for one ``(video, cache key)`` index entry."""
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "-", video_name).strip("-") or "video"
    digest = hashlib.sha256(cache_key.encode("utf-8")).hexdigest()[:10]
    return f"{safe[:48]}-{digest}"


def generation_dirname(generation: int) -> str:
    """Directory name of one committed generation."""
    return f"gen-{generation:06d}"


@dataclass(frozen=True)
class Segment:
    """One contiguous frame window persisted as columnar ``.npy`` files."""

    name: str
    start: int
    end: int


class VideoIndex:
    """Read-side handle on one committed index generation.

    Columns are opened lazily with ``np.load(..., mmap_mode="r")`` and stay
    mapped until :meth:`close` — call it before unlinking any generation
    directory (persistence-hygiene invariant I7 / rule RPR007).
    """

    def __init__(self, directory: Path, manifest: dict[str, Any]) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.video: str = str(manifest["video"])
        self.cache_key: str = str(manifest["cache_key"])
        self.num_frames: int = int(manifest["num_frames"])
        self.fps: float = float(manifest["fps"])
        self.generation: int = int(manifest["generation"])
        self.segment_frames: int = int(manifest["segment_frames"])
        self.segments: tuple[Segment, ...] = tuple(
            Segment(name=str(s["name"]), start=int(s["start"]), end=int(s["end"]))
            for s in manifest["segments"]
        )
        self.generation_dir = self.directory / generation_dirname(self.generation)
        #: Per segment: the memory maps, and plain-``ndarray`` views of them
        #: (what reads index: a ``memmap.__getitem__`` costs a subclass
        #: finalize per slice).
        self._maps: dict[str, dict[str, np.ndarray]] = {}
        self._columns: dict[str, dict[str, np.ndarray]] = {}
        self._feature_offsets: dict[str, np.ndarray] = {}
        self._sketch: RangeSketch | None = None

    @classmethod
    def open(cls, directory: Path) -> VideoIndex:
        """Open the generation the manifest points at."""
        manifest_path = Path(directory) / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigurationError(f"no index manifest at {manifest_path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"unreadable index manifest at {manifest_path}: {exc}"
            ) from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ConfigurationError(
                f"not a video index manifest: format "
                f"{manifest.get('format')!r} != {MANIFEST_FORMAT!r}"
            )
        return cls(Path(directory), manifest)

    @property
    def sketch(self) -> RangeSketch:
        """The generation's range sketch (loaded once, then cached)."""
        if self._sketch is None:
            with np.load(self.generation_dir / SKETCH_NAME) as arrays:
                self._sketch = RangeSketch.from_arrays(arrays)
        return self._sketch

    def statistics(self) -> VideoStatistics | None:
        """The persisted catalog entry, when the build included one."""
        path = self.generation_dir / STATISTICS_NAME
        if not path.exists():
            return None
        return VideoStatistics.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def _segment_arrays(self, segment: Segment) -> dict[str, np.ndarray]:
        """The segment's columns as plain views of the maps (validated once).

        Filled without a lock: two racing readers map and validate the same
        files and one mapping wins the dict slot — the loser's is garbage.
        """
        arrays = self._columns.get(segment.name)
        if arrays is None:
            mapped: dict[str, np.ndarray] = {}
            for column in SEGMENT_COLUMNS:
                path = self.generation_dir / f"{segment.name}.{column}.npy"
                try:
                    mapped[column] = np.load(path, mmap_mode="r")
                except (OSError, ValueError, EOFError) as exc:
                    raise ConfigurationError(
                        f"unreadable index column {path}: {exc}"
                    ) from exc
            arrays = {column: np.asarray(values) for column, values in mapped.items()}
            feature_offsets = _run_offsets(np.maximum(arrays["feature_len"], 0))
            self._validate_segment(segment, arrays, int(feature_offsets[-1]))
            self._maps[segment.name] = mapped
            self._feature_offsets[segment.name] = feature_offsets
            self._columns[segment.name] = arrays
        return arrays

    def _validate_segment(
        self, segment: Segment, arrays: dict[str, np.ndarray], feature_values: int
    ) -> None:
        """Refuse a segment whose columns disagree with each other.

        :meth:`results_for` gathers rows through offsets read from these
        files; an inconsistent segment would otherwise serve another frame's
        detections at zero detector cost.
        """
        frames = segment.end - segment.start
        n_det = arrays["class_code"].size
        det_offsets = arrays["det_offsets"]

        def rows(column: str, expected: int) -> bool:
            return arrays[column].shape[:1] == (expected,)

        def codes_index(codes: str, table: str, lowest: int) -> bool:
            return n_det == 0 or (
                lowest <= arrays[codes].min()
                and arrays[codes].max() < arrays[table].size
            )

        checks = [
            (
                "frame_index",
                rows("frame_index", frames)
                and (frames == 0 or arrays["frame_index"][0] == segment.start),
            ),
            ("timestamp", rows("timestamp", frames)),
            (
                "det_offsets",
                rows("det_offsets", frames + 1)
                and det_offsets[0] == 0
                and det_offsets[-1] == n_det
                and not np.any(np.diff(det_offsets) < 0),
            ),
            *((column, rows(column, n_det)) for column in _DET_COLUMNS),
            ("class_code", codes_index("class_code", "class_table", 0)),
            # ``-1`` is the encoding of "no colour name".
            ("color_name_code", codes_index("color_name_code", "color_name_table", -1)),
            ("features_flat", rows("features_flat", feature_values)),
        ]
        for column, consistent in checks:
            if not consistent:
                raise ConfigurationError(
                    f"inconsistent index segment "
                    f"{self.generation_dir / f'{segment.name}.{column}.npy'}: "
                    f"does not fit frames [{segment.start}, {segment.end}) with "
                    f"{n_det} detections and {feature_values} feature values"
                )

    def results_for(self, frame_indices: np.ndarray | list[int]) -> list[DetectionResult]:
        """Decode a batch of frames' exact detector output, in input order.

        One gather and one decode per segment touched: the detection rows and
        feature spans of every requested frame are copied out of the mapped
        columns with one fancy index per column, so nothing returned points
        into a map.
        """
        frames = np.asarray(frame_indices, dtype=np.int64)
        if frames.size == 0:
            return []
        if frames.min() < 0 or frames.max() >= self.num_frames:
            raise ConfigurationError(
                f"frames outside indexed range [0, {self.num_frames}) of "
                f"video {self.video!r}"
            )
        segment_of = frames // self.segment_frames
        results: list[DetectionResult | None] = [None] * frames.size
        for position in np.unique(segment_of).tolist():
            segment = self.segments[position]
            rows = np.flatnonzero(segment_of == position)
            window = self._gather(segment, frames[rows] - segment.start)
            for row, result in zip(
                rows.tolist(), decode_detection_results(window), strict=True
            ):
                results[row] = result
        return results  # type: ignore[return-value]

    def _gather(self, segment: Segment, local: np.ndarray) -> dict[str, np.ndarray]:
        """The columnar window of the segment's frames ``local``, as copies."""
        arrays = self._segment_arrays(segment)
        lo = arrays["det_offsets"][local]
        det_rows, det_offsets = _concatenated_runs(
            lo, arrays["det_offsets"][local + 1] - lo
        )
        window = {column: arrays[column][det_rows] for column in _DET_COLUMNS}
        feature_rows, _ = _concatenated_runs(
            self._feature_offsets[segment.name][det_rows],
            np.maximum(window["feature_len"], 0),
        )
        window.update(
            frame_index=arrays["frame_index"][local],
            timestamp=arrays["timestamp"][local],
            det_offsets=det_offsets,
            class_table=arrays["class_table"],
            color_name_table=arrays["color_name_table"],
            features_flat=arrays["features_flat"][feature_rows],
        )
        return window

    def segment_results(self, segment: Segment) -> list[DetectionResult]:
        """Decode one whole segment (used by cache warm-start)."""
        return decode_detection_results(self._segment_arrays(segment))

    def iter_segments(self) -> Iterator[tuple[Segment, list[DetectionResult]]]:
        """Decode every segment in frame order."""
        for segment in self.segments:
            yield segment, self.segment_results(segment)

    def close(self) -> None:
        """Release every memory-mapped column (required before unlink)."""
        # The plain views go first: nothing may still point into a closed map.
        self._columns.clear()
        self._feature_offsets.clear()
        for mapped in self._maps.values():
            for values in mapped.values():
                mapping = getattr(values, "_mmap", None)
                if mapping is not None:
                    mapping.close()
        self._maps.clear()

    def describe(self) -> dict[str, Any]:
        """Status summary for ``BlazeIt.index_status()`` and the CLI."""
        payload: dict[str, Any] = {
            "video": self.video,
            "generation": self.generation,
            "num_frames": self.num_frames,
            "segments": len(self.segments),
            "segment_frames": self.segment_frames,
            "detector": self.manifest.get("detector", ""),
            "has_statistics": bool(self.manifest.get("has_statistics", False)),
        }
        payload.update(self.sketch.describe())
        return payload


class PersistentIndex:
    """The store root: one :class:`VideoIndex` directory per indexed video."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def video_dir(self, video_name: str, cache_key: str) -> Path:
        """The directory owning one ``(video, cache key)`` entry."""
        return self.root / video_slug(video_name, cache_key)

    def open(self, video_name: str, cache_key: str) -> VideoIndex | None:
        """Open the committed generation, or ``None`` when absent/mismatched."""
        directory = self.video_dir(video_name, cache_key)
        if not (directory / MANIFEST_NAME).exists():
            return None
        index = VideoIndex.open(directory)
        if index.cache_key != cache_key:
            return None
        return index

    def entries(self) -> list[VideoIndex]:
        """Every committed index under the root (unreadable dirs skipped)."""
        if not self.root.is_dir():
            return []
        indexes: list[VideoIndex] = []
        for directory in sorted(self.root.iterdir()):
            if not (directory / MANIFEST_NAME).is_file():
                continue
            try:
                indexes.append(VideoIndex.open(directory))
            except ConfigurationError:
                continue
        return indexes

    def status(self) -> dict[str, Any]:
        """Store-level summary: root path plus one row per committed video."""
        videos: list[dict[str, Any]] = []
        for index in self.entries():
            try:
                videos.append(index.describe())
            finally:
                index.close()
        return {"root": str(self.root), "videos": videos}


def sweep_stale_builds(directory: Path, keep_generation: int | None) -> None:
    """Remove ``.tmp`` build dirs and generations the manifest doesn't own."""
    if not directory.is_dir():
        return
    keep = generation_dirname(keep_generation) if keep_generation else None
    for child in directory.iterdir():
        if not child.is_dir():
            continue
        if child.name.endswith(".tmp") or (
            child.name.startswith("gen-") and child.name != keep
        ):
            shutil.rmtree(child, ignore_errors=True)


def _run_offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs: ``[0, l0, l0 + l1, ...]``."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _concatenated_runs(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``concatenate([arange(s, s + n) ...])`` without the Python loop, and
    the offsets of each run in it."""
    offsets = _run_offsets(lengths)
    rows = np.repeat(starts - offsets[:-1], lengths) + np.arange(
        offsets[-1], dtype=np.int64
    )
    return rows, offsets


def write_array(path: Path, values: np.ndarray) -> None:
    """Persist one array as a plain ``.npy`` file via the atomic writer."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(values))
    atomic_write_bytes(path, buffer.getvalue())


__all__ = [
    "DEFAULT_SEGMENT_FRAMES",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "SKETCH_NAME",
    "STATISTICS_NAME",
    "SEGMENT_COLUMNS",
    "PersistentIndex",
    "Segment",
    "VideoIndex",
    "generation_dirname",
    "sweep_stale_builds",
    "video_slug",
    "write_array",
]
