"""Ingest-time index builder: run the detector once, persist the evidence.

``build_video_index`` runs the batched detection pipeline over every frame of
one video — through :meth:`ExecutionContext.detect_batch`, the single charging
chokepoint, so the build is priced like any other detector work — and commits
a new index generation atomically:

1. stale ``.tmp`` directories and orphaned generations from crashed builds
   are swept;
2. segments, the range sketch and the optional statistics entry are written
   into ``gen-N.tmp`` (every file via ``persist.atomic_write_*``);
3. the finished directory is renamed to ``gen-N``;
4. the manifest is atomically replaced — the commit point.  A crash anywhere
   before step 4 leaves the previous generation untouched and no litter
   behind (the ``finally`` clause removes the partial build; a hard kill is
   covered by the sweep in step 1).
"""

from __future__ import annotations

import json
import shutil
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.detection.columnar import DetectionBatch, encode_detection_results
from repro.errors import ConfigurationError
from repro.index.sketches import DEFAULT_RANGE_SIZE, RangeSketch
from repro.index.store import (
    DEFAULT_SEGMENT_FRAMES,
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    SKETCH_NAME,
    STATISTICS_NAME,
    PersistentIndex,
    generation_dirname,
    sweep_stale_builds,
)
from repro.metrics.runtime import ExecutionLedger
from repro.obs.metrics import get_registry
from repro.persist import atomic_write_npy, atomic_write_npz, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import VideoStatistics
    from repro.core.context import ExecutionContext


def _committed_generation(directory: Any) -> int:
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        return 0
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return 0
    if manifest.get("format") != MANIFEST_FORMAT:
        return 0
    return int(manifest.get("generation", 0))


def build_video_index(
    store: PersistentIndex,
    video_name: str,
    context: ExecutionContext,
    *,
    range_size: int = DEFAULT_RANGE_SIZE,
    segment_frames: int = DEFAULT_SEGMENT_FRAMES,
    statistics: VideoStatistics | None = None,
) -> dict[str, Any]:
    """Build and atomically commit a new index generation; return a report."""
    if segment_frames < 1:
        raise ConfigurationError(
            f"segment_frames must be >= 1, got {segment_frames}"
        )
    if not context.cache_key:
        raise ConfigurationError(
            "index builds need a context with a cache key (build through "
            "BlazeIt.build_index so index entries match query-time identity)"
        )
    video = context.video
    num_frames = video.num_frames
    directory = store.video_dir(video_name, context.cache_key)
    directory.mkdir(parents=True, exist_ok=True)
    previous = _committed_generation(directory)
    sweep_stale_builds(directory, previous or None)

    generation = previous + 1
    tmp_dir = directory / f"{generation_dirname(generation)}.tmp"
    gen_dir = directory / generation_dirname(generation)
    tmp_dir.mkdir()

    ledger = ExecutionLedger()
    segments: list[dict[str, int | str]] = []
    batches: list[DetectionBatch] = []
    committed = False
    try:
        for start in range(0, num_frames, segment_frames):
            end = min(num_frames, start + segment_frames)
            batch = context.detect_batch(np.arange(start, end, dtype=np.int64), ledger)
            name = f"seg-{start // segment_frames:06d}"
            for column, values in encode_detection_results(batch).items():
                atomic_write_npy(tmp_dir / f"{name}.{column}.npy", values)
            segments.append({"name": name, "start": start, "end": end})
            batches.append(batch)

        sketch = RangeSketch.from_batch(DetectionBatch.concat(batches), num_frames, range_size)
        atomic_write_npz(tmp_dir / SKETCH_NAME, sketch.to_arrays())

        if statistics is not None:
            atomic_write_text(
                tmp_dir / STATISTICS_NAME,
                json.dumps(statistics.to_dict(), indent=2),
            )

        tmp_dir.rename(gen_dir)
        manifest = {
            "format": MANIFEST_FORMAT,
            "video": video_name,
            "cache_key": context.cache_key,
            "detector": context.detector.name,
            "num_frames": num_frames,
            "fps": float(video.spec.fps),
            "range_size": range_size,
            "segment_frames": segment_frames,
            "generation": generation,
            "segments": segments,
            "has_statistics": statistics is not None,
        }
        atomic_write_text(directory / MANIFEST_NAME, json.dumps(manifest, indent=2))
        committed = True
    finally:
        if not committed:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            shutil.rmtree(gen_dir, ignore_errors=True)

    # The newly orphaned previous generation is swept best-effort; a crash
    # here just leaves work for the next build's sweep.
    sweep_stale_builds(directory, generation)

    registry = get_registry()
    labels = {"video": video_name}
    registry.inc(
        "repro_index_builds_total",
        labels=labels,
        help="Committed index generations.",
    )
    registry.inc(
        "repro_index_frames_indexed_total",
        num_frames,
        labels,
        help="Frames covered by committed index builds.",
    )
    registry.inc(
        "repro_index_build_detector_calls_total",
        ledger.detector_calls,
        labels,
        help="Detector invocations charged to index builds.",
    )

    return {
        "video": video_name,
        "generation": generation,
        "num_frames": num_frames,
        "segments": len(segments),
        "segment_frames": segment_frames,
        "detector_calls": ledger.detector_calls,
        "cache_hits": ledger.detection_cache_hits,
        "has_statistics": statistics is not None,
        **sketch.describe(),
    }


__all__ = ["build_video_index"]
