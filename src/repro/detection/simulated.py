"""Simulated object detectors (Mask R-CNN, FGFA, YOLOv2).

The simulator reads the synthetic ground truth and applies a noise model that
matches the qualitative behaviour the paper relies on:

* small objects are missed more often than large ones (Section 10.1 notes
  state-of-the-art detectors "still suffer in performance for small objects");
* confidence scores grow with object size and are noisy, so the per-video
  confidence thresholds of Table 3 are meaningful;
* bounding boxes are jittered slightly;
* occasional false positives appear at a configurable rate.

Each detector declares its per-frame cost (3 fps for Mask R-CNN/FGFA, 80 fps
for YOLOv2); the execution context charges it.  All noise is deterministic
per ``(detector seed, video seed, frame index)`` so repeated calls agree.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.detection.base import ObjectDetector
from repro.detection.columnar import DetectionBatch, concatenated_runs
from repro.metrics.runtime import OperatorCost, StandardCosts
from repro.rng import RekeyedPhilox
from repro.sync import Guarded
from repro.video.synthetic import SyntheticVideo


@dataclass(frozen=True)
class DetectorNoiseModel:
    """Noise characteristics of a simulated detector.

    Parameters
    ----------
    small_object_area_fraction:
        Objects smaller than this fraction of the frame are increasingly
        likely to be missed.
    max_miss_probability:
        Miss probability for a vanishingly small object; decays linearly to
        zero as the object reaches ``small_object_area_fraction``.
    confidence_noise:
        Standard deviation of the Gaussian noise added to confidences.
    box_jitter:
        Standard deviation of box-corner jitter, as a fraction of box size.
    false_positive_rate:
        Expected number of spurious detections per frame.
    confidence_floor:
        Minimum confidence emitted for a detected object.
    """

    small_object_area_fraction: float = 0.002
    max_miss_probability: float = 0.35
    confidence_noise: float = 0.08
    box_jitter: float = 0.03
    false_positive_rate: float = 0.01
    confidence_floor: float = 0.05


#: Feature dimensions of a simulated detection: RGB colour, then box size.
_FEATURE_DIM = 5


def _stream_key(detector_seed: int, video: SyntheticVideo) -> int:
    """The high Philox key word of a (detector, video) pair's frame streams.

    Philox takes exactly two 64-bit key words: the detector and video seeds
    fold into this one, the frame index is the other.
    """
    return ((detector_seed * 2654435761) ^ (video.spec.seed * 40503)) & 0xFFFFFFFFFFFFFFFF


#: A call of at least this many frames builds an object table of just its
#: frames instead of using the video's: the table's fixed cost is amortised,
#: and a video only ever detected in bulk (a labeled-set day, an index build)
#: keeps no table alive.
_CALL_TABLE_FRAMES = 256


class _VideoKernel:
    """Everything a detection over some frames of a video needs that no draw
    changes.

    Built from the columnar object table of those frames — all of them, once
    per (detector configuration, video), for small calls; a large call's own
    frames otherwise: per (frame, object) pair, in :meth:`SyntheticVideo.
    objects_at` order, the clipped box, colour, miss probability (``-1`` for
    a class the detector does not support: never drawn for) and confidence
    base, plus the class table batches code against (the video's track
    classes, then any class only a false positive can name).  Read-only once
    built, except :attr:`idle_streams`, which only its detector's guard
    touches.
    """

    def __init__(
        self,
        video: SyntheticVideo,
        frames: np.ndarray,
        noise: DetectorNoiseModel,
        supported: set[str] | None,
        seed: int,
    ) -> None:
        self.params = (seed, noise, supported)
        self.noise = noise
        self.key_hi = _stream_key(seed, video)
        self.idle_streams: list[RekeyedPhilox] = []
        table = video.frame_object_table(frames)
        width, height = video.spec.width, video.spec.height
        box_w = table.x_max - table.x_min
        box_h = table.y_max - table.y_min
        area_fraction = (box_w * box_h) / float(width * height)
        threshold = noise.small_object_area_fraction
        self.miss = np.where(
            area_fraction >= threshold,
            0.02,
            0.02 + (1.0 - area_fraction / threshold) * noise.max_miss_probability,
        )
        if supported is not None:
            known = [code for code, name in enumerate(table.class_names) if name in supported]
            self.miss[~np.isin(table.class_codes, known)] = -1.0
        self.conf_base = 0.55 + 0.4 * np.minimum(1.0, area_fraction / (4 * threshold))
        self.offsets = table.offsets
        self.box = np.stack([table.x_min, table.y_min, table.x_max, table.y_max], axis=1)
        self.class_code = table.class_codes.astype(np.int32)
        self.color = table.colors
        self.color_code = table.color_codes.astype(np.int32)
        self.color_table = tuple(table.color_names)
        self.bounds = np.array([width, height, width, height], dtype=np.float64)
        self.fps = video.spec.fps
        # False positives: a present object relabelled to another class.
        fp_classes = video.object_class_names or ["car"]
        self.class_table = tuple(dict.fromkeys([*table.class_names, *fp_classes]))
        self.code_of = {name: code for code, name in enumerate(self.class_table)}
        self.wrong_classes = [
            [name for name in fp_classes if name != source] for source in table.class_names
        ]

    def pop_stream(self) -> RekeyedPhilox:
        """An idle stream, or a new one (the caller holds the detector's guard)."""
        return self.idle_streams.pop() if self.idle_streams else RekeyedPhilox(self.key_hi)

    def detect(
        self, streams: RekeyedPhilox, frames: list[int], rows: np.ndarray, threshold: float
    ) -> DetectionBatch:
        """The batch of ``frames`` (rows ``rows`` of the table): per-object
        draws in :meth:`SimulatedDetector.detect_columns`' order, then jitter,
        clipping and features as array operations over every true detection
        at once."""
        frame_index = np.array(frames, dtype=np.int64)
        starts = self.offsets[rows]
        objects, object_offsets = concatenated_runs(starts, self.offsets[rows + 1] - starts)
        miss = self.miss[objects].tolist()
        conf_base = self.conf_base[objects].tolist()
        class_codes = self.class_code[objects].tolist()
        wrong_classes, code_of = self.wrong_classes, self.code_of
        noise = self.noise
        noise_sd = noise.confidence_noise
        floor = noise.confidence_floor
        fp_rate = noise.false_positive_rate
        # Per output row: its object (a position in ``objects``) and its
        # confidence; the nine normals of every true detection; the rows that
        # are false positives, with their class codes; each frame's end row.
        source: list[int] = []
        confidence: list[float] = []
        normals: list[np.ndarray] = []
        fp_rows: list[int] = []
        fp_codes: list[int] = []
        ends: list[int] = []
        bounds = object_offsets.tolist()
        for frame, lo, hi in zip(frames, bounds[:-1], bounds[1:], strict=True):
            rng = streams.rekey(frame)
            for k in range(lo, hi):
                p_miss = miss[k]
                if p_miss < 0.0 or rng.random() < p_miss:
                    continue
                score = min(0.999, max(floor, conf_base[k] + noise_sd * rng.standard_normal()))
                if score < threshold:
                    continue
                source.append(k)
                confidence.append(score)
                normals.append(rng.standard_normal(4 + _FEATURE_DIM))
            if hi > lo:
                for _ in range(rng.poisson(fp_rate)):
                    k = lo + int(rng.integers(0, hi - lo))
                    wrong = wrong_classes[class_codes[k]]
                    if not wrong:
                        continue
                    object_class = str(rng.choice(wrong))
                    score = float(rng.uniform(floor, 0.6))
                    if score < threshold:
                        continue
                    fp_rows.append(len(source))
                    fp_codes.append(code_of[object_class])
                    source.append(k)
                    confidence.append(score)
            ends.append(len(source))

        n_rows = len(source)
        picked = objects[np.array(source, dtype=np.int64)]
        box = self.box[picked]
        color = self.color[picked]
        class_code = self.class_code[picked]
        feature_len = np.full(n_rows, _FEATURE_DIM, dtype=np.int32)
        true_rows: slice | np.ndarray = slice(None)
        if fp_rows:
            # A false positive keeps its source's clipped box and has no
            # features.
            class_code[fp_rows] = fp_codes
            feature_len[fp_rows] = -1
            true_rows = np.flatnonzero(feature_len >= 0)
        features = np.zeros((0, _FEATURE_DIM), dtype=np.float64)
        if normals:
            z = np.array(normals)
            base = box[true_rows]
            size = base[:, 2:] - base[:, :2]
            scale = noise.box_jitter * np.maximum(size, 1.0)
            jittered = base + np.concatenate([scale, scale], axis=1) * z[:, :4]
            corners = np.concatenate(
                [
                    np.minimum(jittered[:, :2], jittered[:, 2:]),
                    np.maximum(jittered[:, :2], jittered[:, 2:]),
                ],
                axis=1,
            )
            box[true_rows] = np.minimum(np.maximum(corners, 0.0), self.bounds)
            features = (
                np.concatenate([color[true_rows] / 255.0, size / 1000.0], axis=1)
                + 0.02 * z[:, 4:]
            )
        return DetectionBatch(
            frame_index=frame_index,
            timestamp=frame_index / self.fps,
            offsets=np.array([0, *ends], dtype=np.int64),
            class_code=class_code,
            class_table=self.class_table,
            box=box,
            confidence=np.array(confidence, dtype=np.float64),
            feature_len=feature_len,
            features_flat=features.reshape(-1),
            color=color,
            has_color=np.ones(n_rows, dtype=np.bool_),
            color_name_code=self.color_code[picked],
            color_name_table=self.color_table,
            track_id=np.full(n_rows, -1, dtype=np.int32),
        )


class SimulatedDetector(ObjectDetector):
    """A full object detector simulated on top of the synthetic ground truth."""

    def __init__(
        self,
        name: str,
        cost: OperatorCost,
        noise: DetectorNoiseModel | None = None,
        confidence_threshold: float = 0.0,
        supported: set[str] | None = None,
        seed: int = 0,
    ) -> None:
        self.name = name
        self._cost = cost
        self.noise = noise or DetectorNoiseModel()
        self.confidence_threshold = confidence_threshold
        self._supported = supported
        self.seed = seed
        self._kernels: Guarded[weakref.WeakKeyDictionary[SyntheticVideo, _VideoKernel]] = (
            Guarded(weakref.WeakKeyDictionary())
        )

    def __getstate__(self) -> dict[str, Any]:
        # Kernels are a per-process memo (and a lock does not pickle).
        state = self.__dict__.copy()
        del state["_kernels"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._kernels = Guarded(weakref.WeakKeyDictionary())

    # -- named configurations ------------------------------------------------

    @classmethod
    def mask_rcnn(
        cls, confidence_threshold: float = 0.8, seed: int = 0
    ) -> "SimulatedDetector":
        """The Mask R-CNN configuration used for most videos in Table 3."""
        return cls(
            name="mask_rcnn",
            cost=StandardCosts.MASK_RCNN,
            noise=DetectorNoiseModel(
                max_miss_probability=0.25,
                confidence_noise=0.06,
                box_jitter=0.02,
                false_positive_rate=0.005,
            ),
            confidence_threshold=confidence_threshold,
            supported={"car", "bus", "boat", "person", "truck", "bird"},
            seed=seed,
        )

    @classmethod
    def fgfa(cls, confidence_threshold: float = 0.2, seed: int = 0) -> "SimulatedDetector":
        """The FGFA configuration used for ``taipei`` in Table 3."""
        return cls(
            name="fgfa",
            cost=StandardCosts.FGFA,
            noise=DetectorNoiseModel(
                max_miss_probability=0.2,
                confidence_noise=0.1,
                box_jitter=0.03,
                false_positive_rate=0.01,
            ),
            confidence_threshold=confidence_threshold,
            supported={"car", "bus", "boat", "person", "truck", "bird"},
            seed=seed,
        )

    @classmethod
    def yolov2(cls, confidence_threshold: float = 0.3, seed: int = 0) -> "SimulatedDetector":
        """The faster, less accurate YOLOv2 configuration (not selected in the paper)."""
        return cls(
            name="yolov2",
            cost=StandardCosts.YOLOV2,
            noise=DetectorNoiseModel(
                max_miss_probability=0.5,
                confidence_noise=0.15,
                box_jitter=0.06,
                false_positive_rate=0.05,
            ),
            confidence_threshold=confidence_threshold,
            supported={"car", "bus", "boat", "person", "truck", "bird"},
            seed=seed,
        )

    # -- ObjectDetector interface ---------------------------------------------

    @property
    def cost(self) -> OperatorCost:
        """Simulated cost of one detection call."""
        return self._cost

    def supported_classes(self) -> set[str] | None:
        return self._supported

    def detect_columns(
        self, video: SyntheticVideo, frame_indices: Sequence[int] | np.ndarray
    ) -> DetectionBatch:
        """The detections of ``frame_indices`` (in order) as one column batch.

        Each frame draws from its own Philox stream.  Per object the detector
        supports, in :meth:`SyntheticVideo.objects_at` order: a uniform for
        the miss test; if detected, a confidence normal; if that clears the
        threshold, four box-jitter normals and a size-5 feature normal.  Then,
        on a frame with objects, a Poisson count of false positives, each a
        present object relabelled to another class with a uniform confidence
        (real false positives fire on content resembling the confused class,
        not on empty background, so an empty frame has none).  The draws use
        two identities: ``normal(0, s)`` is ``0.0 + s * standard_normal()``,
        and the nine jitter and feature normals are one
        ``standard_normal(9)``.  ``tests/oracle.py::reference_detect`` states
        the same semantics one frame and one object at a time, and this
        kernel must equal it bit for bit.  Only the draws and the acceptance
        tests run per object; jitter, clipping and features are array
        operations over the batch afterwards.
        Everything that depends only on the video and the noise model is
        built once per video for small calls (:class:`_VideoKernel`; a call
        of ``_CALL_TABLE_FRAMES`` or more builds its own), and no state is
        shared between concurrent calls but that read-only kernel.
        """
        frames = [int(frame) for frame in frame_indices]
        for frame in (min(frames), max(frames)) if frames else ():
            if not 0 <= frame < video.num_frames:
                raise IndexError(
                    f"frame {frame} out of range for video of {video.num_frames} frames"
                )
        rows = np.array(frames, dtype=np.int64)
        if len(frames) >= _CALL_TABLE_FRAMES:
            kernel = _VideoKernel(video, rows, self.noise, self._supported, self.seed)
            return kernel.detect(
                kernel.pop_stream(), frames, np.arange(len(frames)), self.confidence_threshold
            )
        kernel, streams = self._checkout(video)
        try:
            return kernel.detect(streams, frames, rows, self.confidence_threshold)
        finally:
            self._checkin(kernel, streams)

    def _checkout(self, video: SyntheticVideo) -> tuple[_VideoKernel, RekeyedPhilox]:
        """The video's kernel and a re-keyable stream no other call holds."""
        params = (self.seed, self.noise, self._supported)
        with self._kernels as kernels:
            kernel = kernels.get(video)
            if kernel is not None and kernel.params == params:
                return kernel, kernel.pop_stream()
        built = _VideoKernel(
            video, np.arange(video.num_frames), self.noise, self._supported, self.seed
        )
        with self._kernels as kernels:
            kernel = kernels.get(video)
            if kernel is None or kernel.params != params:
                kernel = kernels[video] = built
            return kernel, kernel.pop_stream()

    def _checkin(self, kernel: _VideoKernel, streams: RekeyedPhilox) -> None:
        with self._kernels:
            kernel.idle_streams.append(streams)
