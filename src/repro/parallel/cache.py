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
recognises either, so old JSON snapshots keep loading.  Both are written
from and read into columns; no ``Detection`` object is built either way.

Entries are columns too: a cached frame holds copies of just its own rows,
packed into three arrays (``_Entry``), so it never pins the detector batch,
index window or shared-memory payload its result came from, and the byte
budget charges what that copy keeps alive.  A read answers with one new
:class:`~repro.detection.columnar.DetectionBatch` of the hits, and a write
takes one, so ``Detection`` objects a reader builds never stay behind in the
cache.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.detection.base import DetectionResult
from repro.detection.columnar import (
    DetectionBatch,
    decode_detection_results,
    encode_detection_results,
    run_offsets,
)
from repro.errors import ConfigurationError
from repro.persist import atomic_write_npz, atomic_write_text
from repro.sync import Guarded

#: Default byte budget used by :func:`get_process_cache` when an engine
#: enables the shared cache without configuring a size.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

#: What an entry keeps alive besides its three arrays: the entry itself, its
#: key tuple and the LRU dict's node.
_ENTRY_OVERHEAD = 360

#: Format marker embedded in the binary snapshot (the JSON form carries
#: ``"shared-detection-cache/v1"`` in its ``format`` field instead).
_NPZ_FORMAT = "shared-detection-cache/v2-npz"

#: Zip local-file-header magic: every ``np.savez`` archive starts with it,
#: which is how :meth:`SharedDetectionCache.load` sniffs the format.
_ZIP_MAGIC = b"PK\x03\x04"


def _batch_to_json(batch: DetectionBatch) -> list[dict[str, Any]]:
    """The ``shared-detection-cache/v1`` form of every frame of a batch."""
    frames = batch.frame_index.tolist()
    stamps = batch.timestamp.tolist()
    offsets = batch.offsets.tolist()
    class_code = batch.class_code.tolist()
    box = batch.box.tolist()
    confidence = batch.confidence.tolist()
    feature_len = batch.feature_len.tolist()
    feature_start = batch.feature_start.tolist()
    features = batch.features_flat.tolist()
    color = batch.color.tolist()
    has_color = batch.has_color.tolist()
    color_name_code = batch.color_name_code.tolist()
    track_id = batch.track_id.tolist()
    return [
        {
            "frame_index": frames[row],
            "timestamp": stamps[row],
            "detections": [
                {
                    "object_class": batch.class_table[class_code[i]],
                    "box": box[i],
                    "confidence": confidence[i],
                    "features": (
                        None
                        if feature_len[i] < 0
                        else features[feature_start[i] : feature_start[i] + feature_len[i]]
                    ),
                    "color": color[i] if has_color[i] else None,
                    "color_name": (
                        None
                        if color_name_code[i] < 0
                        else batch.color_name_table[color_name_code[i]]
                    ),
                    "track_id": None if track_id[i] < 0 else track_id[i],
                }
                for i in range(offsets[row], offsets[row + 1])
            ],
        }
        for row in range(len(frames))
    ]


def _batch_from_json(entries: list[dict[str, Any]]) -> DetectionBatch:
    """Inverse of :func:`_batch_to_json`: the entries' frames as one batch."""
    detections = [d for entry in entries for d in entry["detections"]]
    classes: dict[str, int] = {}
    color_names: dict[str, int] = {}
    features = [d["features"] for d in detections]
    return DetectionBatch(
        frame_index=np.asarray([e["frame_index"] for e in entries], dtype=np.int64),
        timestamp=np.asarray([e["timestamp"] for e in entries], dtype=np.float64),
        offsets=run_offsets(
            np.asarray([len(e["detections"]) for e in entries], dtype=np.int64)
        ),
        class_code=np.asarray(
            [classes.setdefault(d["object_class"], len(classes)) for d in detections],
            dtype=np.int32,
        ),
        class_table=tuple(classes),
        box=np.asarray([d["box"] for d in detections], dtype=np.float64).reshape(-1, 4),
        confidence=np.asarray([d["confidence"] for d in detections], dtype=np.float64),
        feature_len=np.asarray(
            [-1 if f is None else len(f) for f in features], dtype=np.int32
        ),
        features_flat=np.asarray(
            [x for f in features if f is not None for x in f], dtype=np.float64
        ),
        color=np.asarray(
            [d["color"] or (0.0, 0.0, 0.0) for d in detections], dtype=np.float64
        ).reshape(-1, 3),
        has_color=np.asarray([d["color"] is not None for d in detections], dtype=np.bool_),
        color_name_code=np.asarray(
            [
                -1
                if d["color_name"] is None
                else color_names.setdefault(d["color_name"], len(color_names))
                for d in detections
            ],
            dtype=np.int32,
        ),
        color_name_table=tuple(color_names),
        # Absent in snapshots written before the field was persisted.
        track_id=np.asarray(
            [-1 if d.get("track_id") is None else d["track_id"] for d in detections],
            dtype=np.int32,
        ),
    )


@dataclass(frozen=True)
class SharedCacheStats:
    """Counters exposing how much detector work the shared cache absorbed
    (a snapshot: :attr:`SharedDetectionCache.stats` builds a new one)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    current_bytes: int = 0
    entries: int = 0


@dataclass(slots=True)
class _Entry:
    """One cached frame: copies of just its own rows, in three arrays.

    ``values`` holds each row's box, confidence and colour (``(n, 8)``
    float64), ``codes`` its class, feature length, has-colour flag, colour
    name and track id (``(n, 5)`` int32), ``features`` its concatenated
    feature vectors.  The entry pins nothing else (the string tables are
    shared), and ``nbytes`` is what it keeps alive.
    """

    frame_index: int
    timestamp: float
    values: np.ndarray
    codes: np.ndarray
    features: np.ndarray
    class_table: tuple[str, ...]
    color_name_table: tuple[str, ...]
    nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.nbytes = _ENTRY_OVERHEAD + sum(
            sys.getsizeof(array) for array in (self.values, self.codes, self.features)
        )


def _entries(batch: DetectionBatch) -> list[_Entry]:
    """One entry per frame of ``batch``, owning copies of just its rows.

    Never pins what the batch is or views: a detector batch, an index window
    or a shared-memory payload.
    """
    values = np.concatenate([batch.box, batch.confidence[:, None], batch.color], axis=1)
    codes = np.stack(
        [
            batch.class_code, batch.feature_len, batch.has_color,
            batch.color_name_code, batch.track_id,
        ],
        axis=1,
    ).astype(np.int32, copy=False)
    offsets = batch.offsets.tolist()
    feature_start = batch.feature_start.tolist()
    return [
        _Entry(
            frame_index=frame,
            timestamp=stamp,
            values=values[lo:hi].copy(),
            codes=codes[lo:hi].copy(),
            features=batch.features_flat[feature_start[lo] : feature_start[hi]].copy(),
            class_table=batch.class_table,
            color_name_table=batch.color_name_table,
        )
        for frame, stamp, lo, hi in zip(
            batch.frame_index.tolist(), batch.timestamp.tolist(), offsets[:-1], offsets[1:],
            strict=True,
        )
    ]


def _batch_of(entries: Sequence[_Entry]) -> DetectionBatch:
    """The entries' frames, in order, as one batch over new arrays.

    Runs of entries with the same string tables (one video's frames, as a
    rule) are stacked directly; the runs are concatenated.
    """
    runs: list[list[_Entry]] = []
    for entry in entries:
        if (
            not runs
            or entry.class_table != runs[-1][0].class_table
            or entry.color_name_table != runs[-1][0].color_name_table
        ):
            runs.append([])
        runs[-1].append(entry)
    return DetectionBatch.concat([_stack(run) for run in runs])


def _stack(entries: list[_Entry]) -> DetectionBatch:
    """Entries sharing their string tables as one batch."""
    values = np.concatenate([entry.values for entry in entries])
    codes = np.concatenate([entry.codes for entry in entries])
    return DetectionBatch(
        frame_index=np.array([entry.frame_index for entry in entries], dtype=np.int64),
        timestamp=np.array([entry.timestamp for entry in entries], dtype=np.float64),
        offsets=run_offsets(np.array([len(entry.codes) for entry in entries], dtype=np.int64)),
        class_code=codes[:, 0],
        class_table=entries[0].class_table,
        box=values[:, :4],
        confidence=values[:, 4],
        feature_len=codes[:, 1],
        features_flat=np.concatenate([entry.features for entry in entries]),
        color=values[:, 5:],
        has_color=codes[:, 2] != 0,
        color_name_code=codes[:, 3],
        color_name_table=entries[0].color_name_table,
        track_id=codes[:, 4],
    )


class _CacheState:
    """Entries, budget and counters of one cache, reached only under its guard."""

    __slots__ = (
        "entries", "capacity_bytes", "hits", "misses", "insertions", "evictions",
        "current_bytes",
    )

    def __init__(self, capacity_bytes: int) -> None:
        self.entries: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        self.capacity_bytes = capacity_bytes
        self.hits = self.misses = self.insertions = self.evictions = 0
        self.current_bytes = 0

    def evict_to_budget(self) -> None:
        while self.current_bytes > self.capacity_bytes and self.entries:
            _, evicted = self.entries.popitem(last=False)
            self.current_bytes -= evicted.nbytes
            self.evictions += 1


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
        self._state = Guarded(_CacheState(capacity_bytes))

    def __len__(self) -> int:
        with self._state as s:
            return len(s.entries)

    @property
    def capacity_bytes(self) -> int:
        """The byte budget (see :meth:`resize`)."""
        with self._state as s:
            return s.capacity_bytes

    @property
    def stats(self) -> SharedCacheStats:
        """A consistent snapshot of the counters."""
        with self._state as s:
            return SharedCacheStats(
                hits=s.hits,
                misses=s.misses,
                insertions=s.insertions,
                evictions=s.evictions,
                current_bytes=s.current_bytes,
                entries=len(s.entries),
            )

    # -- core operations ------------------------------------------------------------

    def get(self, video_key: str, frame_index: int) -> DetectionResult | None:
        """The cached detections for a frame, refreshing recency; None on miss."""
        found = self.get_many(video_key, [frame_index])
        return found[0] if found else None

    def get_many(
        self, video_key: str, frame_indices: Sequence[int] | np.ndarray
    ) -> DetectionBatch:
        """The cached frames of a batch (only the hits, in request order) as
        one new batch, under one lock hold."""
        found: list[_Entry] = []
        with self._state as s:
            for frame_index in np.asarray(frame_indices, dtype=np.int64).tolist():
                key = (video_key, frame_index)
                entry = s.entries.get(key)
                if entry is None:
                    s.misses += 1
                    continue
                s.entries.move_to_end(key)
                s.hits += 1
                found.append(entry)
        return _batch_of(found)

    def put(self, video_key: str, frame_index: int, result: DetectionResult) -> None:
        """Insert (or refresh) one frame's detections, evicting to budget."""
        self._insert(
            [(video_key, int(frame_index))], _entries(DetectionBatch.from_detections([result]))
        )

    def put_many(self, video_key: str, batch: DetectionBatch) -> None:
        """Insert every frame of a batch under one lock hold.

        Each frame is stored as a copy of its own rows, and charged the
        bytes that copy keeps alive.
        """
        self._insert(
            [(video_key, frame_index) for frame_index in batch.frame_index.tolist()],
            _entries(batch),
        )

    def _insert(self, keys: list[tuple[str, int]], entries: list[_Entry]) -> None:
        """Insert (or refresh) entries in order under one lock hold, then
        evict to budget: the survivors are the longest newest run that fits,
        exactly as inserting one at a time.  An entry that run leaves out is
        counted as inserted and evicted without ever being stored, so a big
        batch never swells a small cache's table."""
        with self._state as s:
            fitting = [entry.nbytes for entry in entries if entry.nbytes <= s.capacity_bytes]
            total = sum(fitting)
            doomed = 0
            while total > s.capacity_bytes:
                total -= fitting[doomed]
                doomed += 1
            for key, entry in zip(keys, entries, strict=True):
                existing = s.entries.pop(key, None)
                if existing is not None:
                    s.current_bytes -= existing.nbytes
                if entry.nbytes > s.capacity_bytes:
                    continue  # a single oversized frame can never fit
                s.insertions += 1
                if doomed:
                    doomed -= 1
                    s.evictions += 1
                    continue
                s.entries[key] = entry
                s.current_bytes += entry.nbytes
            s.evict_to_budget()

    def clear(self) -> None:
        """Drop every entry (counters other than ``current_bytes`` are kept)."""
        with self._state as s:
            s.entries.clear()
            s.current_bytes = 0

    def resize(self, capacity_bytes: int) -> None:
        """Change the byte budget, evicting immediately if it shrank."""
        if capacity_bytes < 1:
            raise ConfigurationError(
                f"capacity_bytes must be >= 1, got {capacity_bytes}"
            )
        with self._state as s:
            s.capacity_bytes = capacity_bytes
            s.evict_to_budget()

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
        with self._state as s:
            keys = list(s.entries.keys())
            entries = list(s.entries.values())
            capacity = s.capacity_bytes
        # Every entry (LRU order) as one batch, written from its columns.
        batch = _batch_of(entries)
        if format == "json":
            payload = {
                "format": "shared-detection-cache/v1",
                "capacity_bytes": capacity,
                "entries": [
                    {"video_key": key[0], **entry}
                    for key, entry in zip(keys, _batch_to_json(batch), strict=True)
                ],
            }
            atomic_write_text(path, json.dumps(payload))
            return
        # Columnar binary: the shared codec's columns, plus a video-key
        # string table mapping rows to keys.
        video_key_table = sorted({key[0] for key in keys})
        key_index = {name: i for i, name in enumerate(video_key_table)}
        arrays = encode_detection_results(batch)
        arrays["cache_format"] = np.asarray(_NPZ_FORMAT)
        arrays["capacity_bytes"] = np.asarray(capacity, dtype=np.int64)
        arrays["video_key_table"] = np.asarray(video_key_table, dtype=np.str_)
        arrays["video_key_code"] = np.asarray(
            [key_index[key[0]] for key in keys], dtype=np.int32
        )
        atomic_write_npz(path, arrays)

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
        entries = payload["entries"]
        cache._insert(
            [(entry["video_key"], int(entry["frame_index"])) for entry in entries],
            _entries(_batch_from_json(entries)),
        )
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
        batch = decode_detection_results(arrays)
        video_key_table = [str(name) for name in arrays["video_key_table"]]
        cache = cls(
            capacity_bytes=(
                capacity_bytes
                if capacity_bytes is not None
                else int(arrays["capacity_bytes"])
            )
        )
        cache._insert(
            [
                (video_key_table[code], frame_index)
                for code, frame_index in zip(
                    arrays["video_key_code"].tolist(), batch.frame_index.tolist(), strict=True
                )
            ],
            _entries(batch),
        )
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
