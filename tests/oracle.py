"""Scalar oracles the batch-only production paths are tested against.

Production code has exactly one detection read path
(``ExecutionContext.detect_batch`` and its uncharged twin
``speculate_batch``), one detector kernel (``SimulatedDetector.
detect_columns``), one index read (``IndexView.get`` over a batch: one
gather and one decode per segment) and one feature kernel
(``SyntheticVideo.frame_features``), all batch-only, and results keep their
FrameQL records as one column table (``RecordTable``).  What they must compute
is written down here once, one frame at a time and against public primitives
only, so a test can ask "is every
tier serving — or skipping — exactly what the detector would have returned,
and is the right party charged?" of one reference instead of comparing
hand-kept copies pairwise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.context import ExecutionContext
from repro.detection.base import Detection, DetectionResult
from repro.detection.columnar import DetectionBatch
from repro.detection.simulated import SimulatedDetector
from repro.frameql.schema import FrameRecord
from repro.index.store import SEGMENT_COLUMNS
from repro.index.view import IndexView
from repro.metrics.runtime import ExecutionLedger, OperatorCost, RuntimeLedger
from repro.video.geometry import BoundingBox
from repro.video.synthetic import (
    FEATURE_CHANNELS,
    FEATURE_DIM,
    FEATURE_GRID,
    SyntheticVideo,
)


def detect_reference(
    context: ExecutionContext,
    frame_index: int,
    ledger: RuntimeLedger | None = None,
    cost_scale: float = 1.0,
    prefetcher=None,
) -> DetectionResult:
    """One frame through the source cascade: this *is* the accounting contract.

    Execution cache → shared cache → index → charge → prefetcher → detector
    → publish.  The simulated detector answers through its scalar twin
    below; any other detector (a recorded test day among them) has none, so
    its own one-frame call is the reference.  A free tier's hit is seeded
    into the execution cache under its own counter and counted as a cache
    hit; only a frame no free tier has is charged, once, whoever then
    computes it.  The execution cache is the ledger's, read and seeded one
    frame at a time.
    """
    execution_ledger = ledger if isinstance(ledger, ExecutionLedger) else None
    if execution_ledger is not None:
        cache = execution_ledger.detection_cache
        (which,), (row,) = cache.locate(np.array([frame_index]))
        if which >= 0:
            execution_ledger.record_cache_hit()
            return cache.batches[which][row]
    if context.shared_cache is not None:
        shared = context.shared_cache.get(context.cache_key, frame_index)
        if shared is not None:
            if execution_ledger is not None:
                execution_ledger.record_shared_hits(DetectionBatch.from_detections([shared]))
                execution_ledger.record_cache_hit()
            return shared
    if context.index_view is not None:
        indexed = index_get_reference(context.index_view, frame_index)
        if indexed is not None:
            result, skipped = indexed
            if execution_ledger is not None:
                execution_ledger.record_index_hits(
                    DetectionBatch.from_detections([result]), int(skipped)
                )
                execution_ledger.record_cache_hit()
            return result
    if ledger is not None:
        cost = context.detector.cost
        ledger.charge(OperatorCost(cost.name, cost.seconds_per_call * cost_scale))
    result = prefetcher.take(frame_index) if prefetcher is not None else None
    if result is None and isinstance(context.detector, SimulatedDetector):
        result = reference_detect(context.detector, context.video, frame_index)
    elif result is None:
        result = context.detector.detect(context.video, frame_index)
    if execution_ledger is not None:
        execution_ledger.record_detections(DetectionBatch.from_detections([result]))
    if context.shared_cache is not None:
        context.shared_cache.put(context.cache_key, frame_index, result)
    return result


def reference_detect(
    detector: SimulatedDetector, video: SyntheticVideo, frame_index: int
) -> DetectionResult:
    """One frame of a simulated detector, one object and one draw at a time.

    The semantics ``SimulatedDetector.detect_columns`` must equal bit for
    bit.  The frame's Philox stream is keyed by (detector seed, video seed)
    and the frame index.  Each object of a supported class draws a uniform
    for the miss test; a detected one draws its confidence, and one that
    clears the threshold draws four box-jitter normals and a size-5 feature
    normal.  Then, if the frame has objects, a Poisson number of false
    positives each relabel a present object to another class.
    """
    noise = detector.noise
    threshold = detector.confidence_threshold
    supported = detector.supported_classes()
    width, height = video.spec.width, video.spec.height
    key_hi = ((detector.seed * 2654435761) ^ (video.spec.seed * 40503)) & 0xFFFFFFFFFFFFFFFF
    rng = np.random.Generator(np.random.Philox(key=[key_hi, frame_index]))
    small = noise.small_object_area_fraction
    timestamp = video.timestamp_of(frame_index)
    objects = video.objects_at(frame_index)
    detections: list[Detection] = []
    for obj in objects:
        if supported is not None and obj.object_class not in supported:
            continue
        area_fraction = obj.box.area / float(width * height)
        miss = 0.02
        if area_fraction < small:
            miss += (1.0 - area_fraction / small) * noise.max_miss_probability
        if rng.random() < miss:
            continue
        # Larger objects yield higher confidences; saturates around 0.95.
        base = 0.55 + 0.4 * min(1.0, area_fraction / (4 * small))
        confidence = base + rng.normal(0.0, noise.confidence_noise)
        confidence = float(min(0.999, max(noise.confidence_floor, confidence)))
        if confidence < threshold:
            continue
        box = obj.box
        jitter_x = noise.box_jitter * max(box.width, 1.0)
        jitter_y = noise.box_jitter * max(box.height, 1.0)
        left = box.x_min + rng.normal(0.0, jitter_x)
        top = box.y_min + rng.normal(0.0, jitter_y)
        right = box.x_max + rng.normal(0.0, jitter_x)
        bottom = box.y_max + rng.normal(0.0, jitter_y)
        # Jitter may invert a thin (edge-clipped) box.
        jittered = BoundingBox(
            min(left, right), min(top, bottom), max(left, right), max(top, bottom)
        ).clip_to(width, height)
        features = np.concatenate(
            [
                np.asarray(obj.color, dtype=np.float64) / 255.0,
                np.array([box.width, box.height], dtype=np.float64) / 1000.0,
            ]
        )
        detections.append(
            Detection(
                frame_index=frame_index,
                timestamp=timestamp,
                object_class=obj.object_class,
                box=jittered,
                confidence=confidence,
                features=features + rng.normal(0.0, 0.02, size=features.shape),
                color=obj.color,
                color_name=obj.color_name,
            )
        )
    if objects:
        class_names = video.object_class_names or ["car"]
        for _ in range(rng.poisson(noise.false_positive_rate)):
            source = objects[int(rng.integers(0, len(objects)))]
            wrong_classes = [c for c in class_names if c != source.object_class]
            if not wrong_classes:
                continue
            object_class = str(rng.choice(wrong_classes))
            confidence = float(rng.uniform(noise.confidence_floor, 0.6))
            if confidence < threshold:
                continue
            detections.append(
                Detection(
                    frame_index=frame_index,
                    timestamp=timestamp,
                    object_class=object_class,
                    box=source.box.clip_to(width, height),
                    confidence=confidence,
                    features=None,
                    color=source.color,
                    color_name=source.color_name,
                )
            )
    return DetectionResult(frame_index=frame_index, timestamp=timestamp, detections=detections)


def index_get_reference(
    view: IndexView, frame_index: int
) -> tuple[DetectionResult, bool] | None:
    """One frame through the index tier: ``(result, skipped)`` or ``None``.

    Outside the indexed range the index has no answer; a frame whose sketch
    range holds no detection at all is synthesized empty without touching a
    segment; anything else is :func:`index_frame_reference`.
    """
    if not 0 <= frame_index < view.num_frames:
        return None
    sketch = view.sketch
    if int(sketch.occupied_frames[frame_index // sketch.range_size]) == 0:
        empty = DetectionResult(
            frame_index=frame_index,
            timestamp=frame_index / view.index.fps,
            detections=[],
        )
        return empty, True
    return index_frame_reference(view, frame_index), False


def index_frame_reference(view: IndexView, frame_index: int) -> DetectionResult:
    """One frame's persisted detections, sliced straight out of the segment's
    ``.npy`` column files and converted one scalar at a time — the per-frame
    twin of ``VideoIndex.results_for``'s gather-and-decode."""
    index = view.index
    segment = index.segments[frame_index // index.segment_frames]
    columns = {
        name: np.load(index.generation_dir / f"{segment.name}.{name}.npy")
        for name in SEGMENT_COLUMNS
    }
    local = frame_index - segment.start
    assert int(columns["frame_index"][local]) == frame_index
    stamp = float(columns["timestamp"][local])
    lo = int(columns["det_offsets"][local])
    hi = int(columns["det_offsets"][local + 1])
    feature_start = int(np.maximum(columns["feature_len"][:lo], 0).sum())
    detections = []
    for i in range(lo, hi):
        n_feat = int(columns["feature_len"][i])
        features = None
        if n_feat >= 0:
            features = columns["features_flat"][
                feature_start : feature_start + n_feat
            ].copy()
            feature_start += n_feat
        name_code = int(columns["color_name_code"][i])
        raw_track = int(columns["track_id"][i])
        detections.append(
            Detection(
                frame_index=frame_index,
                timestamp=stamp,
                object_class=str(columns["class_table"][int(columns["class_code"][i])]),
                box=BoundingBox(*(float(v) for v in columns["box"][i])),
                confidence=float(columns["confidence"][i]),
                features=features,
                track_id=None if raw_track < 0 else raw_track,
                color=(
                    tuple(float(v) for v in columns["color"][i])
                    if bool(columns["has_color"][i])
                    else None
                ),
                color_name=(
                    None if name_code < 0 else str(columns["color_name_table"][name_code])
                ),
            )
        )
    return DetectionResult(
        frame_index=frame_index, timestamp=stamp, detections=detections
    )


def detect_batch_reference(
    context: ExecutionContext,
    frame_indices,
    ledger: RuntimeLedger | None = None,
    cost_scale: float = 1.0,
    prefetcher=None,
) -> DetectionBatch:
    """A batch is its frames, one at a time, in order (gathered into columns
    only at the end, so plans can run on it).

    The one thing a batch adds: with no execution cache to absorb them,
    in-batch repeats are answered by the batch itself — computed and charged
    once — where an :class:`ExecutionLedger` would have counted cache hits.
    """
    answered: dict[int, DetectionResult] = {}
    results = []
    for frame_index in (int(i) for i in frame_indices):
        if isinstance(ledger, ExecutionLedger) or frame_index not in answered:
            answered[frame_index] = detect_reference(
                context, frame_index, ledger, cost_scale, prefetcher
            )
        results.append(answered[frame_index])
    return DetectionBatch.from_detections(results)


def run_engine_on_oracles(monkeypatch) -> None:
    """Make every engine in this test execute on the scalar oracles.

    The scalar "engine mode" of earlier rounds, test-side: plans keep calling
    ``detect_batch`` / ``frame_features``, which now answer one frame at a
    time from the references above.
    """
    monkeypatch.setattr(
        ExecutionContext,
        "detect_batch",
        lambda self, frame_indices, ledger=None, cost_scale=1.0: detect_batch_reference(
            self, frame_indices, ledger, cost_scale, prefetcher=self._prefetcher
        ),
    )
    monkeypatch.setattr(SyntheticVideo, "frame_features", frame_features_reference)


def frame_features_reference(
    video: SyntheticVideo, frame_indices: np.ndarray | list[int]
) -> np.ndarray:
    """Scalar per-frame reference of ``SyntheticVideo.frame_features``.

    One Python loop per frame and per visible track — exactly the seed
    behaviour, kept as the ground truth the columnar kernel is tested
    against, bit for bit.
    """
    indices = np.asarray(frame_indices, dtype=np.int64)
    out = np.zeros((indices.size, FEATURE_DIM), dtype=np.float64)
    for row, frame_index in enumerate(indices):
        out[row] = _features_for(video, int(frame_index))
    return out


def _features_for(video: SyntheticVideo, frame_index: int) -> np.ndarray:
    spec = video.spec
    if not 0 <= frame_index < spec.num_frames:
        raise IndexError(f"frame {frame_index} out of range")
    grid = FEATURE_GRID
    cell_w = spec.width / grid
    cell_h = spec.height / grid
    features = np.zeros(FEATURE_DIM, dtype=np.float64)
    frame_area = float(spec.width * spec.height)
    total_occupancy = 0.0
    total_area = 0.0
    for track in video.tracks_at(frame_index):
        box = track.box_at(frame_index).clip_to(spec.width, spec.height)
        center = box.center
        col = min(grid - 1, max(0, int(center.x // cell_w)))
        row = min(grid - 1, max(0, int(center.y // cell_h)))
        cell = row * grid + col
        area_fraction = box.area / frame_area
        # Colour contributions are weighted by the object's *linear* size
        # fraction (square root of area); see ``_compute_feature_rows``.
        weight = min(1.0, 3.0 * math.sqrt(area_fraction))
        base = cell * FEATURE_CHANNELS
        features[base + 0] += weight * track.color[0] / 255.0
        features[base + 1] += weight * track.color[1] / 255.0
        features[base + 2] += weight * track.color[2] / 255.0
        features[base + 3] += 1.0
        features[base + 4] += 10.0 * area_fraction
        total_occupancy += 1.0
        total_area += 10.0 * area_fraction
    features[-3] = total_occupancy
    features[-2] = total_area
    # Global brightness: background level plus slow variation over the day.
    features[-1] = 0.5 + 0.1 * math.sin(
        2.0 * math.pi * frame_index / max(spec.num_frames, 1)
    )
    noise_rng = np.random.Generator(
        np.random.Philox(key=[spec.seed & 0xFFFFFFFF, frame_index])
    )
    features += noise_rng.normal(0.0, 0.03, size=FEATURE_DIM)
    return features


def reference_tracks(
    results, iou_threshold: float = 0.7, max_gap: int = 1
) -> list[tuple[int, str, list[Detection]]]:
    """Scalar reference of ``IoUTracker.resolve``: one frame at a time.

    Returns ``(track_id, object_class, detections)`` by track id.  Frames are
    fed in frame order (stable).  Each frame first retires the tracks whose
    last detection is more than ``max_gap`` frames back; then every
    (active track, detection) pair of one class whose IoU against the
    track's last box is at least ``iou_threshold`` is a candidate, matched
    greedily by IoU, ties in (track id, detection) order; every unmatched
    detection opens a new track.
    """
    active: list[list] = []  # [track_id, class, detections, last_frame]
    finished: list[list] = []
    next_id = 0
    for result in sorted(results, key=lambda r: r.frame_index):
        frame = result.frame_index
        finished.extend(t for t in active if frame - t[3] > max_gap)
        active = [t for t in active if frame - t[3] <= max_gap]
        detections = list(result.detections)
        candidates = []
        for track in active:
            for position, det in enumerate(detections):
                if det.object_class != track[1]:
                    continue
                iou = det.box.iou(track[2][-1].box)
                if iou >= iou_threshold:
                    candidates.append((iou, track, position))
        candidates.sort(key=lambda item: item[0], reverse=True)
        matched_tracks: set[int] = set()
        matched: set[int] = set()
        for _, track, position in candidates:
            if track[0] in matched_tracks or position in matched:
                continue
            track[2].append(detections[position])
            track[3] = frame
            matched_tracks.add(track[0])
            matched.add(position)
        for position, det in enumerate(detections):
            if position not in matched:
                active.append([next_id, det.object_class, [det], frame])
                next_id += 1
    return [(t[0], t[1], t[2]) for t in sorted(finished + active, key=lambda t: t[0])]


_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def detection_matches(detection: Detection, spec, udf_registry) -> bool:
    """Scalar reference of ``predicate_mask``: one detection's object-level
    predicates, class → area → spatial → UDFs in query order, stopping at the
    first that fails."""
    if spec.object_class is not None and detection.object_class != spec.object_class:
        return False
    box = detection.box
    if spec.min_area is not None and box.area <= spec.min_area:
        return False
    if spec.max_area is not None and box.area >= spec.max_area:
        return False
    for constraint in spec.spatial_constraints:
        extent = {
            "xmin": box.x_min,
            "xmax": box.x_max,
            "ymin": box.y_min,
            "ymax": box.y_max,
        }[constraint.axis]
        if not _OPS[constraint.op](extent, constraint.value):
            return False
    for predicate in spec.udf_predicates:
        udf = udf_registry.get(predicate.udf_name)
        if not _OPS[predicate.op](udf.object_fn(detection), predicate.value):
            return False
    return True


def reference_records(tracks, keep=None, min_rows: int = 1) -> list[FrameRecord]:
    """Scalar reference of ``TrackAggregator.materialize``: one ``FrameRecord``
    per tracked row, track by track, built from the row's ``Detection``.

    ``keep`` (a row mask over the tracks' batch) restricts a track to the
    rows it selects, and a track with fewer than ``min_rows`` of them yields
    nothing; without ``keep`` every row of every track is a record.
    """
    records = []
    for track in tracks:
        rows = [row for row in track.rows.tolist() if keep is None or keep[row]]
        if keep is not None and len(rows) < min_rows:
            continue
        for det in track.batch.objects(np.asarray(rows, dtype=np.int64)):
            records.append(
                FrameRecord(
                    timestamp=det.timestamp,
                    frame_index=det.frame_index,
                    object_class=det.object_class,
                    mask=det.box,
                    trackid=track.track_id,
                    features=det.features,
                    confidence=det.confidence,
                    color=det.color,
                    color_name=det.color_name,
                )
            )
    return records
