"""Lossless columnar encoding of detection results.

Per-object :class:`~repro.detection.base.DetectionResult` payloads are the
wrong shape for the transports this repo cares about: the shared-memory ring
between a process shard worker and the driver (pickling thousands of small
dataclasses per chunk dominates the transfer), the on-disk detection cache
(the JSON dump grows quadratic-ish in practice) and the persistent index's
segments (:mod:`repro.index.store`, which gathers a batch of frames out of
the memory-mapped columns and decodes the window here).  All of them move a
handful of flat numpy arrays produced here.

The encoding is exact: ``decode_detection_results(encode_detection_results(rs))``
rebuilds detections that compare equal field-for-field, including ``None``
feature vectors (CSR-style ``-1`` sentinel lengths), optional colors and
color names (string tables with ``-1`` codes), and absent track ids.  The
driver re-materialises results from these arrays before charging the ledger,
so the bit-for-bit parity guarantee of the parallel engine never depends on
the transport.  Decoding converts each column with one ``tolist()`` and
builds the string tables and feature offsets once per call — call it on as
large a window as the caller has, not per frame — and copies every feature
vector out, so nothing decoded keeps a map or a shared-memory slot alive.

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
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Sequence

import numpy as np

from repro.detection.base import Detection, DetectionResult
from repro.video.geometry import BoundingBox

__all__ = [
    "encode_detection_results",
    "decode_detection_results",
    "encode_to_bytes",
    "decode_from_bytes",
]


def _string_table(values: Iterable[str]) -> tuple[np.ndarray, dict[str, int]]:
    table = sorted(set(values))
    return np.asarray(table, dtype=np.str_), {name: i for i, name in enumerate(table)}


def encode_detection_results(
    results: Sequence[DetectionResult],
) -> dict[str, np.ndarray]:
    """Encode results as the flat column arrays documented in the module."""
    detections = [d for result in results for d in result.detections]
    n_det = len(detections)

    class_table, class_index = _string_table(d.object_class for d in detections)
    color_name_table, color_name_index = _string_table(
        d.color_name for d in detections if d.color_name is not None
    )

    det_offsets = np.zeros(len(results) + 1, dtype=np.int64)
    np.cumsum([len(r.detections) for r in results], out=det_offsets[1:])

    box = np.zeros((n_det, 4), dtype=np.float64)
    color = np.zeros((n_det, 3), dtype=np.float64)
    has_color = np.zeros(n_det, dtype=np.bool_)
    feature_len = np.full(n_det, -1, dtype=np.int32)
    class_code = np.zeros(n_det, dtype=np.int32)
    confidence = np.zeros(n_det, dtype=np.float64)
    color_name_code = np.full(n_det, -1, dtype=np.int32)
    track_id = np.full(n_det, -1, dtype=np.int32)
    feature_chunks: list[np.ndarray] = []

    for i, det in enumerate(detections):
        class_code[i] = class_index[det.object_class]
        box[i] = (det.box.x_min, det.box.y_min, det.box.x_max, det.box.y_max)
        confidence[i] = det.confidence
        if det.features is not None:
            feature_len[i] = det.features.size
            feature_chunks.append(np.asarray(det.features, dtype=np.float64).ravel())
        if det.color is not None:
            has_color[i] = True
            color[i] = det.color
        if det.color_name is not None:
            color_name_code[i] = color_name_index[det.color_name]
        if det.track_id is not None:
            track_id[i] = det.track_id

    features_flat = (
        np.concatenate(feature_chunks)
        if feature_chunks
        else np.zeros(0, dtype=np.float64)
    )
    return {
        "frame_index": np.asarray([r.frame_index for r in results], dtype=np.int64),
        "timestamp": np.asarray([r.timestamp for r in results], dtype=np.float64),
        "det_offsets": det_offsets,
        "class_code": class_code,
        "class_table": class_table,
        "box": box,
        "confidence": confidence,
        "feature_len": feature_len,
        "features_flat": features_flat,
        "color": color,
        "has_color": has_color,
        "color_name_code": color_name_code,
        "color_name_table": color_name_table,
        "track_id": track_id,
    }


def decode_detection_results(arrays: dict[str, np.ndarray]) -> list[DetectionResult]:
    """Rebuild the exact :class:`DetectionResult` objects from column arrays.

    Every column is converted to Python scalars with one ``tolist()`` and the
    two string tables and the feature offsets are built once per call, so the
    object loop below touches no numpy scalar.  Feature vectors are copied
    out one by one: each owns its memory and nothing decoded here keeps the
    input arrays (an mmap window, a shared-memory slot) alive.
    """
    frame_index = arrays["frame_index"].tolist()
    timestamp = arrays["timestamp"].tolist()
    det_offsets = arrays["det_offsets"].tolist()
    class_table = arrays["class_table"].tolist()
    color_name_table = arrays["color_name_table"].tolist()
    class_code = arrays["class_code"].tolist()
    box = arrays["box"].tolist()
    confidence = arrays["confidence"].tolist()
    feature_len = arrays["feature_len"].tolist()
    color = arrays["color"].tolist()
    has_color = arrays["has_color"].tolist()
    color_name_code = arrays["color_name_code"].tolist()
    track_id = arrays["track_id"].tolist()
    features_flat = arrays["features_flat"]
    feature_offsets = np.zeros(len(feature_len) + 1, dtype=np.int64)
    np.cumsum(np.maximum(arrays["feature_len"], 0), out=feature_offsets[1:])
    feature_start = feature_offsets.tolist()

    results: list[DetectionResult] = []
    for f, frame in enumerate(frame_index):
        stamp = timestamp[f]
        detections: list[Detection] = []
        for i in range(det_offsets[f], det_offsets[f + 1]):
            n_feat = feature_len[i]
            detections.append(
                Detection(
                    frame_index=frame,
                    timestamp=stamp,
                    object_class=class_table[class_code[i]],
                    box=BoundingBox(*box[i]),
                    confidence=confidence[i],
                    features=(
                        None
                        if n_feat < 0
                        else features_flat[
                            feature_start[i] : feature_start[i] + n_feat
                        ].copy()
                    ),
                    track_id=None if track_id[i] < 0 else track_id[i],
                    color=tuple(color[i]) if has_color[i] else None,  # type: ignore[arg-type]
                    color_name=(
                        None
                        if color_name_code[i] < 0
                        else color_name_table[color_name_code[i]]
                    ),
                )
            )
        results.append(
            DetectionResult(frame_index=frame, timestamp=stamp, detections=detections)
        )
    return results


def encode_to_bytes(results: Sequence[DetectionResult]) -> bytes:
    """Serialize results to an uncompressed npz payload (zip of .npy files)."""
    buffer = io.BytesIO()
    np.savez(buffer, **encode_detection_results(results))
    return buffer.getvalue()


def decode_from_bytes(payload: bytes) -> list[DetectionResult]:
    """Inverse of :func:`encode_to_bytes`."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return decode_detection_results(arrays)
