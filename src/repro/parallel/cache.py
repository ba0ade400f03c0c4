"""Process-wide shared detection cache for cross-query reuse.

The multi-user serving scenario runs many queries over the same hot videos;
without sharing, every execution re-pays the detector for frames a previous
query already decoded.  :class:`SharedDetectionCache` is a thread-safe LRU
keyed by ``(video key, frame index)`` with a byte budget, consulted by
:meth:`repro.core.context.ExecutionContext.detect_batch` *before* the ledger
is charged — a hit costs the execution nothing and is counted in
``ExecutionLedger.shared_cache_hits``.

The cache is deliberately opt-in (``BlazeItConfig.shared_cache_bytes``,
0 disables): with it enabled, the ledger accounting of repeated queries is no
longer independent of execution history, which is exactly the point — but
also exactly what the deterministic benchmarks must not silently inherit.

Optional persistence (:meth:`save` / :meth:`load`) lets a warm cache survive
process restarts, so shard pruning *and* detector reuse both carry across
serving sessions.  Two on-disk formats are offered: human-readable JSON
(``format="json"``) and a compact binary columnar form (``format="npz"``,
the same codec the process-backend shard transport uses); :meth:`load`
recognises either, so old JSON snapshots keep loading.
"""

from __future__ import annotations

import io
import json
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.detection.base import Detection, DetectionResult
from repro.detection.columnar import decode_detection_results, encode_detection_results
from repro.errors import ConfigurationError
from repro.persist import atomic_write_bytes, atomic_write_text

#: Default byte budget used by :func:`get_process_cache` when an engine
#: enables the shared cache without configuring a size.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

#: Fixed per-entry overhead (result object, dict slot, key) in the byte
#: estimate; detections add their own footprint on top.
_RESULT_OVERHEAD = 160
_DETECTION_OVERHEAD = 200

#: Format marker embedded in the binary snapshot (the JSON form carries
#: ``"shared-detection-cache/v1"`` in its ``format`` field instead).
_NPZ_FORMAT = "shared-detection-cache/v2-npz"

#: Zip local-file-header magic: every ``np.savez`` archive starts with it,
#: which is how :meth:`SharedDetectionCache.load` sniffs the format.
_ZIP_MAGIC = b"PK\x03\x04"


def _detection_bytes(detection: Detection) -> int:
    size = _DETECTION_OVERHEAD
    if detection.features is not None:
        size += int(np.asarray(detection.features).nbytes)
    return size


def estimate_result_bytes(result: DetectionResult) -> int:
    """Rough in-memory footprint of one frame's detections, for the budget."""
    return _RESULT_OVERHEAD + sum(_detection_bytes(d) for d in result.detections)


def _detection_to_json(detection: Detection) -> dict:
    return {
        "object_class": detection.object_class,
        "box": [
            detection.box.x_min,
            detection.box.y_min,
            detection.box.x_max,
            detection.box.y_max,
        ],
        "confidence": detection.confidence,
        "features": (
            None
            if detection.features is None
            else np.asarray(detection.features, dtype=np.float64).tolist()
        ),
        "color": None if detection.color is None else list(detection.color),
        "color_name": detection.color_name,
        "track_id": detection.track_id,
    }


def _detection_from_json(
    payload: dict, frame_index: int, timestamp: float
) -> Detection:
    from repro.video.geometry import BoundingBox

    return Detection(
        frame_index=frame_index,
        timestamp=timestamp,
        object_class=payload["object_class"],
        box=BoundingBox(*payload["box"]),
        confidence=payload["confidence"],
        features=(
            None
            if payload["features"] is None
            else np.asarray(payload["features"], dtype=np.float64)
        ),
        color=None if payload["color"] is None else tuple(payload["color"]),
        color_name=payload["color_name"],
        # Absent in snapshots written before the field was persisted.
        track_id=payload.get("track_id"),
    )


def result_to_json(result: DetectionResult) -> dict:
    """JSON-serialisable form of one frame's detections."""
    return {
        "frame_index": result.frame_index,
        "timestamp": result.timestamp,
        "detections": [_detection_to_json(d) for d in result.detections],
    }


def result_from_json(payload: dict) -> DetectionResult:
    """Inverse of :func:`result_to_json`."""
    frame_index = int(payload["frame_index"])
    timestamp = float(payload["timestamp"])
    return DetectionResult(
        frame_index=frame_index,
        timestamp=timestamp,
        detections=[
            _detection_from_json(d, frame_index, timestamp)
            for d in payload["detections"]
        ],
    )


@dataclass
class SharedCacheStats:
    """Counters exposing how much detector work the shared cache absorbed."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    current_bytes: int = 0
    entries: int = 0

    def snapshot(self) -> "SharedCacheStats":
        return SharedCacheStats(**vars(self))


@dataclass
class _Entry:
    result: DetectionResult
    nbytes: int = field(default=0)


class SharedDetectionCache:
    """Thread-safe LRU of detection results with a byte budget.

    Keys are ``(video_key, frame_index)``; the video key (built by the engine
    from the video name plus its detector's identity) namespaces entries so
    two videos — or one video under two detectors — never collide.  ``get``
    refreshes recency, ``put`` evicts least-recently-used entries until the
    budget holds.  All operations take the cache lock, so concurrent shard
    workers and concurrent sessions can share one process-wide instance.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if capacity_bytes < 1:
            raise ConfigurationError(
                f"capacity_bytes must be >= 1, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = SharedCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    # -- core operations ------------------------------------------------------------

    def get(self, video_key: str, frame_index: int) -> DetectionResult | None:
        """The cached detections for a frame, refreshing recency; None on miss."""
        key = (video_key, int(frame_index))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.result

    def get_many(
        self, video_key: str, frame_indices: list[int]
    ) -> dict[int, DetectionResult]:
        """Cached detections for a batch of frames (only the hits), one lock hold."""
        out: dict[int, DetectionResult] = {}
        with self._lock:
            for frame_index in frame_indices:
                key = (video_key, int(frame_index))
                entry = self._entries.get(key)
                if entry is None:
                    self.stats.misses += 1
                    continue
                self._entries.move_to_end(key)
                self.stats.hits += 1
                out[int(frame_index)] = entry.result
        return out

    def put(self, video_key: str, frame_index: int, result: DetectionResult) -> None:
        """Insert (or refresh) one frame's detections, evicting to budget."""
        self.put_many(video_key, {int(frame_index): result})

    def put_many(
        self, video_key: str, results: dict[int, DetectionResult]
    ) -> None:
        """Insert a batch of detections under one lock hold."""
        with self._lock:
            for frame_index, result in results.items():
                key = (video_key, int(frame_index))
                existing = self._entries.pop(key, None)
                if existing is not None:
                    self.stats.current_bytes -= existing.nbytes
                nbytes = estimate_result_bytes(result)
                if nbytes > self.capacity_bytes:
                    continue  # a single oversized frame can never fit
                self._entries[key] = _Entry(result=result, nbytes=nbytes)
                self.stats.current_bytes += nbytes
                self.stats.insertions += 1
            while self.stats.current_bytes > self.capacity_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self.stats.current_bytes -= evicted.nbytes
                self.stats.evictions += 1
            self.stats.entries = len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters other than ``current_bytes`` are kept)."""
        with self._lock:
            self._entries.clear()
            self.stats.current_bytes = 0
            self.stats.entries = 0

    def resize(self, capacity_bytes: int) -> None:
        """Change the byte budget, evicting immediately if it shrank."""
        if capacity_bytes < 1:
            raise ConfigurationError(
                f"capacity_bytes must be >= 1, got {capacity_bytes}"
            )
        with self._lock:
            self.capacity_bytes = capacity_bytes
            while self.stats.current_bytes > self.capacity_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self.stats.current_bytes -= evicted.nbytes
                self.stats.evictions += 1
            self.stats.entries = len(self._entries)

    # -- persistence ----------------------------------------------------------------

    def save(self, path: str | Path, format: str = "json") -> None:
        """Serialise every entry (LRU order preserved) to ``path``.

        ``format="json"`` writes the historical human-readable snapshot;
        ``format="npz"`` writes the compact columnar binary form (the same
        codec the process-backend shard transport uses) — typically an order
        of magnitude smaller for feature-heavy caches.  Either way the write
        is atomic (temp file + rename): a server killed mid-save leaves the
        previous snapshot intact, never a truncated file.
        """
        if format not in ("json", "npz"):
            raise ConfigurationError(
                f"format must be 'json' or 'npz', got {format!r}"
            )
        with self._lock:
            keys = list(self._entries.keys())
            results = [entry.result for entry in self._entries.values()]
            capacity = self.capacity_bytes
        if format == "json":
            payload = {
                "format": "shared-detection-cache/v1",
                "capacity_bytes": capacity,
                "entries": [
                    {"video_key": key[0], **result_to_json(result)}
                    for key, result in zip(keys, results, strict=True)
                ],
            }
            atomic_write_text(path, json.dumps(payload))
            return
        # Columnar binary: detections of every entry (LRU order) through the
        # shared codec, plus a video-key string table mapping rows to keys.
        video_key_table = sorted({key[0] for key in keys})
        key_index = {name: i for i, name in enumerate(video_key_table)}
        arrays = encode_detection_results(results)
        arrays["cache_format"] = np.asarray(_NPZ_FORMAT)
        arrays["capacity_bytes"] = np.asarray(capacity, dtype=np.int64)
        arrays["video_key_table"] = np.asarray(video_key_table, dtype=np.str_)
        arrays["video_key_code"] = np.asarray(
            [key_index[key[0]] for key in keys], dtype=np.int32
        )
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        atomic_write_bytes(path, buffer.getvalue())

    @classmethod
    def load(
        cls, path: str | Path, capacity_bytes: int | None = None
    ) -> "SharedDetectionCache":
        """Rebuild a cache from :meth:`save` output (oldest entries first).

        The format is sniffed from the file itself — zip magic means the
        columnar ``npz`` form, anything else the JSON form — so callers never
        name it and old JSON snapshots keep loading unchanged.
        """
        raw = Path(path).read_bytes()
        if raw[:4] == _ZIP_MAGIC:
            return cls._load_npz(raw, path, capacity_bytes)
        payload = json.loads(raw.decode("utf-8"))
        if payload.get("format") != "shared-detection-cache/v1":
            raise ConfigurationError(
                f"{path} is not a shared-detection-cache file"
            )
        cache = cls(
            capacity_bytes=(
                capacity_bytes
                if capacity_bytes is not None
                else int(payload["capacity_bytes"])
            )
        )
        for entry in payload["entries"]:
            cache.put(entry["video_key"], int(entry["frame_index"]), result_from_json(entry))
        return cache

    @classmethod
    def _load_npz(
        cls, raw: bytes, path: str | Path, capacity_bytes: int | None
    ) -> "SharedDetectionCache":
        try:
            with np.load(io.BytesIO(raw), allow_pickle=False) as archive:
                if (
                    "cache_format" not in archive
                    or str(archive["cache_format"]) != _NPZ_FORMAT
                ):
                    raise ConfigurationError(
                        f"{path} is not a shared-detection-cache file"
                    )
                arrays = {name: archive[name] for name in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise ConfigurationError(
                f"{path} is not a shared-detection-cache file: {exc}"
            ) from exc
        results = decode_detection_results(arrays)
        video_key_table = [str(name) for name in arrays["video_key_table"]]
        cache = cls(
            capacity_bytes=(
                capacity_bytes
                if capacity_bytes is not None
                else int(arrays["capacity_bytes"])
            )
        )
        for code, result in zip(arrays["video_key_code"], results, strict=True):
            cache.put(video_key_table[int(code)], result.frame_index, result)
        return cache


# -- process-wide singleton ---------------------------------------------------------

_process_cache: SharedDetectionCache | None = None
_process_cache_lock = threading.Lock()


def get_process_cache(capacity_bytes: int | None = None) -> SharedDetectionCache:
    """The process-wide shared cache, created (or grown) on first use.

    Every engine with ``shared_cache_bytes > 0`` shares this instance, which
    is what makes the cache cross-*query* and cross-*session*: a frame
    decoded by one user's query serves every later query over the same video.
    A larger requested capacity grows the cache; a smaller one leaves it
    untouched (shrinking a serving cache under someone else's feet would be
    surprising).
    """
    global _process_cache
    with _process_cache_lock:
        if _process_cache is None:
            _process_cache = SharedDetectionCache(
                capacity_bytes=capacity_bytes or DEFAULT_CACHE_BYTES
            )
        elif capacity_bytes is not None and capacity_bytes > _process_cache.capacity_bytes:
            _process_cache.resize(capacity_bytes)
        return _process_cache


def reset_process_cache() -> None:
    """Drop the process-wide cache (tests and long-running servers)."""
    global _process_cache
    with _process_cache_lock:
        _process_cache = None
