"""Generative scene model that stands in for real video.

The paper's optimizations exploit statistical structure in video: objects
arrive and dwell for a while (temporal coherence), most frames are "boring"
(low counts), and high-count or unusual frames are rare and bursty.  This
module generates synthetic *tracks* — an object of some class entering the
scene, moving along a linear trajectory, and leaving — from a per-class
arrival process with diurnal and bursty rate modulation.  The resulting
per-frame ground truth is what the simulated object detector perturbs and what
specialized NNs learn to approximate from cheap frame features.

Nothing downstream of this module may read the ground truth directly without
paying the simulated detection cost; query execution goes through
:mod:`repro.detection`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.rng import RekeyedPhilox
from repro.video.frame import COLOR_PALETTE, Frame, GroundTruthObject
from repro.video.geometry import BoundingBox

#: Number of grid cells along each axis used for the cheap frame features.
FEATURE_GRID = 4

#: Channels stored per grid cell: three colour channels (area-weighted), an
#: occupancy count, and a total-area channel.  The area channel is what lets
#: specialized models distinguish large object classes (buses, boats) from
#: small ones (cars, people) the way a tiny CNN would from appearance.
FEATURE_CHANNELS = 5

#: Length of the per-frame feature vector: the per-cell grid plus three global
#: terms (total object count proxy, total covered area, background brightness).
FEATURE_DIM = FEATURE_GRID * FEATURE_GRID * FEATURE_CHANNELS + 3


@dataclass(frozen=True)
class ObjectClassSpec:
    """Statistical description of one object class in a scenario.

    Parameters
    ----------
    name:
        Object class label (``"car"``, ``"bus"``, ``"boat"``, ``"person"``).
    arrival_rate:
        Mean number of new tracks per frame before rate modulation.
    mean_duration:
        Mean dwell time of a track, in frames.
    size_range:
        ``(min, max)`` box side length in pixels; width and height are drawn
        independently from this range.
    color_weights:
        Mapping from colour name (see :data:`~repro.video.frame.COLOR_PALETTE`)
        to sampling weight.
    burstiness:
        Strength of the bursty rate modulation in ``[0, 1)``; higher values
        produce occasional frames with many simultaneous objects.
    region:
        ``(x_min, y_min, x_max, y_max)`` fraction of the frame in which the
        class appears; used by spatial-filter experiments.
    speed:
        Mean speed in pixels per frame.
    """

    name: str
    arrival_rate: float
    mean_duration: float
    size_range: tuple[float, float]
    color_weights: dict[str, float]
    burstiness: float = 0.3
    region: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    speed: float = 4.0


@dataclass(frozen=True)
class VideoSpec:
    """Full description of a synthetic video."""

    name: str
    width: int
    height: int
    fps: float
    num_frames: int
    object_classes: tuple[ObjectClassSpec, ...]
    seed: int = 0

    def class_spec(self, name: str) -> ObjectClassSpec:
        """Look up the spec for one object class."""
        for spec in self.object_classes:
            if spec.name == name:
                return spec
        raise KeyError(f"no object class named {name!r} in video {self.name!r}")


@dataclass(frozen=True)
class Track:
    """A single object track: one object visible over a contiguous frame range."""

    track_id: int
    object_class: str
    start_frame: int
    end_frame: int  # exclusive
    start_x: float
    start_y: float
    velocity_x: float
    velocity_y: float
    width: float
    height: float
    color_name: str
    color: tuple[float, float, float]

    @property
    def duration(self) -> int:
        """Number of frames the track is visible."""
        return self.end_frame - self.start_frame

    def box_at(self, frame_index: int) -> BoundingBox:
        """Bounding box of the object at a given frame."""
        if not self.start_frame <= frame_index < self.end_frame:
            raise ValueError(
                f"frame {frame_index} outside track range "
                f"[{self.start_frame}, {self.end_frame})"
            )
        elapsed = frame_index - self.start_frame
        center_x = self.start_x + self.velocity_x * elapsed
        center_y = self.start_y + self.velocity_y * elapsed
        return BoundingBox.from_center(center_x, center_y, self.width, self.height)


def _rate_profile(
    num_frames: int, base_rate: float, burstiness: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-frame arrival rate: diurnal sinusoid plus random bursts.

    The sinusoid models slow traffic-volume variation over the day; the bursts
    model rush periods, which is what makes high simultaneous counts possible
    but rare (the structure the scrubbing experiments need).
    """
    frames = np.arange(num_frames)
    # One and a half slow cycles over the video, amplitude 40% of the base.
    diurnal = 1.0 + 0.4 * np.sin(2.0 * np.pi * 1.5 * frames / max(num_frames, 1))
    rate = base_rate * diurnal
    if burstiness > 0:
        n_bursts = max(1, int(num_frames / 4000))
        burst_starts = rng.integers(0, max(num_frames - 1, 1), size=n_bursts)
        burst_lengths = rng.integers(100, 600, size=n_bursts)
        burst_gains = 1.0 + burstiness * rng.uniform(2.0, 6.0, size=n_bursts)
        for start, length, gain in zip(burst_starts, burst_lengths, burst_gains, strict=True):
            end = min(num_frames, int(start + length))
            rate[start:end] *= gain
    return rate


@dataclass(frozen=True)
class FrameObjectTable:
    """Columnar ground-truth objects for a batch of frames.

    One row per visible (frame, track) pair; frame ``i`` of the requesting
    batch owns rows ``offsets[i]:offsets[i + 1]``, in the order
    :meth:`SyntheticVideo.objects_at` lists objects.  Boxes are clipped to
    the frame, exactly as ``GroundTruthObject.box`` would be.
    """

    frame_row: np.ndarray
    offsets: np.ndarray
    track_ids: np.ndarray
    class_codes: np.ndarray
    class_names: list[str]
    x_min: np.ndarray
    y_min: np.ndarray
    x_max: np.ndarray
    y_max: np.ndarray
    colors: np.ndarray
    color_codes: np.ndarray
    color_names: list[str]

    def __len__(self) -> int:
        return int(self.track_ids.size)


class SyntheticVideo:
    """A fully generated synthetic video.

    The video is represented compactly as a list of :class:`Track` objects
    plus index arrays that map frame indices to the tracks visible in them.
    Frames (with ground-truth objects and cheap features) are materialised on
    demand.
    """

    def __init__(self, spec: VideoSpec, tracks: list[Track]) -> None:
        self.spec = spec
        self.tracks = tracks
        self._build_index()
        # Feature memo: a dense (num_frames, FEATURE_DIM) matrix plus a
        # readiness mask, allocated lazily on the first feature request, and
        # the read-only view of the whole memo once every row is filled.
        self._feature_memo: np.ndarray | None = None
        self._feature_ready: np.ndarray | None = None
        self._all_features: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(cls, spec: VideoSpec) -> "SyntheticVideo":
        """Generate a video from a :class:`VideoSpec`."""
        rng = np.random.default_rng(spec.seed)
        tracks: list[Track] = []
        track_id = 0
        for class_spec in spec.object_classes:
            rate = _rate_profile(
                spec.num_frames, class_spec.arrival_rate, class_spec.burstiness, rng
            )
            arrivals = rng.poisson(rate)
            arrival_frames = np.repeat(np.arange(spec.num_frames), arrivals)
            region = class_spec.region
            x_lo, x_hi = region[0] * spec.width, region[2] * spec.width
            y_lo, y_hi = region[1] * spec.height, region[3] * spec.height
            color_names = list(class_spec.color_weights.keys())
            weights = np.array(list(class_spec.color_weights.values()), dtype=float)
            weights = weights / weights.sum()
            for start in arrival_frames:
                duration = max(2, int(rng.exponential(class_spec.mean_duration)))
                end = min(spec.num_frames, int(start) + duration)
                if end <= start:
                    continue
                width = rng.uniform(*class_spec.size_range)
                height = rng.uniform(*class_spec.size_range)
                start_x = rng.uniform(x_lo, x_hi)
                start_y = rng.uniform(y_lo, y_hi)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                speed = max(0.0, rng.normal(class_spec.speed, class_spec.speed * 0.25))
                color_name = str(rng.choice(color_names, p=weights))
                tracks.append(
                    Track(
                        track_id=track_id,
                        object_class=class_spec.name,
                        start_frame=int(start),
                        end_frame=int(end),
                        start_x=start_x,
                        start_y=start_y,
                        velocity_x=speed * math.cos(angle),
                        velocity_y=speed * math.sin(angle),
                        width=width,
                        height=height,
                        color_name=color_name,
                        color=COLOR_PALETTE[color_name],
                    )
                )
                track_id += 1
        tracks.sort(key=lambda t: (t.start_frame, t.track_id))
        return cls(spec, tracks)

    def _build_index(self) -> None:
        """Build (frame, track) pair arrays for fast per-frame lookups."""
        self._build_track_columns()
        if not self.tracks:
            self._pair_frames = np.zeros(0, dtype=np.int64)
            self._pair_tracks = np.zeros(0, dtype=np.int64)
            self._frame_offsets = np.zeros(self.spec.num_frames + 1, dtype=np.int64)
            return
        frame_chunks = []
        track_chunks = []
        for idx, track in enumerate(self.tracks):
            frames = np.arange(track.start_frame, track.end_frame, dtype=np.int64)
            frame_chunks.append(frames)
            track_chunks.append(np.full(frames.shape, idx, dtype=np.int64))
        pair_frames = np.concatenate(frame_chunks)
        pair_tracks = np.concatenate(track_chunks)
        order = np.argsort(pair_frames, kind="stable")
        self._pair_frames = pair_frames[order]
        self._pair_tracks = pair_tracks[order]
        # Offsets so that tracks visible at frame f live in
        # _pair_tracks[_frame_offsets[f]:_frame_offsets[f + 1]].
        counts = np.bincount(self._pair_frames, minlength=self.spec.num_frames)
        self._frame_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )

    def _build_track_columns(self) -> None:
        """Columnar (struct-of-arrays) view of the track list.

        The vectorized feature and detection paths compute geometry for
        thousands of (frame, track) pairs as one array program; they index
        these columns by track position instead of touching ``Track`` objects.
        """
        n = len(self.tracks)
        self._track_start = np.fromiter(
            (t.start_frame for t in self.tracks), dtype=np.int64, count=n
        )
        self._track_sx = np.fromiter(
            (t.start_x for t in self.tracks), dtype=np.float64, count=n
        )
        self._track_sy = np.fromiter(
            (t.start_y for t in self.tracks), dtype=np.float64, count=n
        )
        self._track_vx = np.fromiter(
            (t.velocity_x for t in self.tracks), dtype=np.float64, count=n
        )
        self._track_vy = np.fromiter(
            (t.velocity_y for t in self.tracks), dtype=np.float64, count=n
        )
        self._track_w = np.fromiter(
            (t.width for t in self.tracks), dtype=np.float64, count=n
        )
        self._track_h = np.fromiter(
            (t.height for t in self.tracks), dtype=np.float64, count=n
        )
        self._track_id = np.fromiter(
            (t.track_id for t in self.tracks), dtype=np.int64, count=n
        )
        self._track_color = np.array(
            [t.color for t in self.tracks], dtype=np.float64
        ).reshape(n, 3)
        # Class / colour names as small code tables (first-seen order).
        class_names: list[str] = []
        class_codes = np.zeros(n, dtype=np.int64)
        color_names: list[str] = []
        color_codes = np.zeros(n, dtype=np.int64)
        class_index: dict[str, int] = {}
        color_index: dict[str, int] = {}
        for idx, track in enumerate(self.tracks):
            code = class_index.get(track.object_class)
            if code is None:
                code = class_index[track.object_class] = len(class_names)
                class_names.append(track.object_class)
            class_codes[idx] = code
            code = color_index.get(track.color_name)
            if code is None:
                code = color_index[track.color_name] = len(color_names)
                color_names.append(track.color_name)
            color_codes[idx] = code
        self._track_class_names = class_names
        self._track_class_code = class_codes
        self._track_color_names = color_names
        self._track_color_code = color_codes

    # -- basic accessors ----------------------------------------------------

    @property
    def name(self) -> str:
        """Name of the video (scenario name plus split)."""
        return self.spec.name

    @property
    def num_frames(self) -> int:
        """Number of frames in the video."""
        return self.spec.num_frames

    @property
    def fps(self) -> float:
        """Frame rate of the video."""
        return self.spec.fps

    @property
    def object_class_names(self) -> list[str]:
        """Names of the object classes present in the scenario spec."""
        return [spec.name for spec in self.spec.object_classes]

    def timestamp_of(self, frame_index: int) -> float:
        """Timestamp in seconds of a frame index."""
        return frame_index / self.spec.fps

    def frame_of_timestamp(self, timestamp: float) -> int:
        """Frame index corresponding to a timestamp in seconds."""
        return int(round(timestamp * self.spec.fps))

    # -- ground truth access (internal to the substrate) --------------------

    def tracks_at(self, frame_index: int) -> list[Track]:
        """Tracks visible at a frame index."""
        self._check_frame(frame_index)
        lo = self._frame_offsets[frame_index]
        hi = self._frame_offsets[frame_index + 1]
        return [self.tracks[i] for i in self._pair_tracks[lo:hi]]

    def objects_at(self, frame_index: int) -> list[GroundTruthObject]:
        """Ground-truth objects visible at a frame index."""
        objects = []
        for track in self.tracks_at(frame_index):
            objects.append(
                GroundTruthObject(
                    track_id=track.track_id,
                    object_class=track.object_class,
                    box=track.box_at(frame_index).clip_to(
                        self.spec.width, self.spec.height
                    ),
                    color=track.color,
                    color_name=track.color_name,
                )
            )
        return objects

    def get_frame(self, frame_index: int, with_features: bool = False) -> Frame:
        """Materialise a frame, optionally with its feature vector."""
        self._check_frame(frame_index)
        frame = Frame(
            index=frame_index,
            timestamp=self.timestamp_of(frame_index),
            width=self.spec.width,
            height=self.spec.height,
            objects=self.objects_at(frame_index),
        )
        if with_features:
            frame.features = self.frame_features(np.array([frame_index]))[0]
        return frame

    def _check_frame(self, frame_index: int) -> None:
        if not 0 <= frame_index < self.spec.num_frames:
            raise IndexError(
                f"frame {frame_index} out of range for video of "
                f"{self.spec.num_frames} frames"
            )

    # -- aggregate ground truth (used by tests and benchmark harnesses) -----

    def class_counts(self, object_class: str) -> np.ndarray:
        """Per-frame ground-truth count of one object class.

        This is the quantity the simulated "full object detector" reports
        (up to its noise model); benchmark harnesses use it to compute the
        true value of aggregate queries.
        """
        counts = np.zeros(self.spec.num_frames, dtype=np.int64)
        for track in self.tracks:
            if track.object_class == object_class:
                counts[track.start_frame : track.end_frame] += 1
        return counts

    def occupancy(self, object_class: str) -> float:
        """Fraction of frames in which at least one object of the class appears."""
        counts = self.class_counts(object_class)
        if counts.size == 0:
            return 0.0
        return float(np.mean(counts > 0))

    def distinct_count(self, object_class: str) -> int:
        """Number of distinct tracks of the class (the paper's "distinct count")."""
        return sum(1 for track in self.tracks if track.object_class == object_class)

    def mean_duration_seconds(self, object_class: str) -> float:
        """Mean dwell time of tracks of the class, in seconds."""
        durations = [
            track.duration for track in self.tracks if track.object_class == object_class
        ]
        if not durations:
            return 0.0
        return float(np.mean(durations)) / self.spec.fps

    def max_count(self, object_class: str) -> int:
        """Maximum simultaneous count of the class over the whole video."""
        counts = self.class_counts(object_class)
        if counts.size == 0:
            return 0
        return int(counts.max())

    # -- cheap frame features ------------------------------------------------

    def frame_features(self, frame_indices: np.ndarray | list[int]) -> np.ndarray:
        """Cheap per-frame features used by specialized NNs and content filters.

        For each frame we compute a ``FEATURE_GRID x FEATURE_GRID`` grid; each
        cell accumulates the colours of objects whose centre falls in it
        (weighted by relative object area) and an occupancy count.  A global
        brightness term and per-frame observation noise are added.  The noise
        is deterministic per frame so repeated reads agree.

        The implementation is columnar: an N-frame feature matrix is one
        array program over the (frame, track) pair index (scatter-adds via
        ``np.add.at``) backed by a dense memo array, bit-for-bit identical to
        the per-frame scalar kernel the test suite keeps as its oracle.
        """
        indices = np.asarray(frame_indices, dtype=np.int64)
        if indices.size == 0:
            return np.zeros((0, FEATURE_DIM), dtype=np.float64)
        bad = (indices < 0) | (indices >= self.spec.num_frames)
        if bad.any():
            self._check_frame(int(indices[np.argmax(bad)]))
        return self._filled_memo(indices)[indices]

    def all_features(self) -> np.ndarray:
        """The whole video's feature matrix, as a read-only view of the memo.

        Fills the memo once and returns the same view on every call — no
        copy — so every full-matrix consumer (the test-day context, the
        labeled set's training and held-out days) shares one array.
        """
        if self._all_features is None:
            view = self._filled_memo(np.arange(self.spec.num_frames)).view()
            view.flags.writeable = False
            self._all_features = view
        return self._all_features

    def _filled_memo(self, indices: np.ndarray) -> np.ndarray:
        """The feature memo, with the rows of ``indices`` computed."""
        if self._feature_memo is None or self._feature_ready is None:
            self._feature_memo = np.zeros(
                (self.spec.num_frames, FEATURE_DIM), dtype=np.float64
            )
            self._feature_ready = np.zeros(self.spec.num_frames, dtype=bool)
        missing = np.unique(indices[~self._feature_ready[indices]])
        if missing.size:
            self._feature_memo[missing] = self._compute_feature_rows(missing)
            self._feature_ready[missing] = True
        return self._feature_memo

    # -- vectorized feature/geometry kernels ---------------------------------

    def _pair_positions(
        self, frame_indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions into the pair arrays for a batch of frames.

        Returns ``(row_of_pair, pair_pos)``: for every (frame, track) pair of
        every requested frame, the row of the requesting frame in the input
        batch and the pair's position in ``_pair_frames`` / ``_pair_tracks``.
        Pairs appear in ``tracks_at`` order, frame by frame.
        """
        starts = self._frame_offsets[frame_indices]
        lengths = self._frame_offsets[frame_indices + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        row_of_pair = np.repeat(np.arange(frame_indices.size, dtype=np.int64), lengths)
        cum = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lengths)])
        pair_pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum[:-1], lengths)
            + np.repeat(starts, lengths)
        )
        return row_of_pair, pair_pos

    def _pair_boxes(
        self, pair_pos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Clipped bounding boxes for (frame, track) pairs, as columns.

        Replicates ``Track.box_at(...).clip_to(width, height)`` operation for
        operation so the columnar paths are bit-for-bit identical to the
        per-object ones.  Returns ``(track_idx, x_min, y_min, x_max, y_max)``.
        """
        track_idx = self._pair_tracks[pair_pos]
        elapsed = (self._pair_frames[pair_pos] - self._track_start[track_idx]).astype(
            np.float64
        )
        center_x = self._track_sx[track_idx] + self._track_vx[track_idx] * elapsed
        center_y = self._track_sy[track_idx] + self._track_vy[track_idx] * elapsed
        half_w = self._track_w[track_idx] / 2.0
        half_h = self._track_h[track_idx] / 2.0
        width = float(self.spec.width)
        height = float(self.spec.height)
        x_min = np.minimum(np.maximum(center_x - half_w, 0.0), width)
        y_min = np.minimum(np.maximum(center_y - half_h, 0.0), height)
        x_max = np.minimum(np.maximum(center_x + half_w, 0.0), width)
        y_max = np.minimum(np.maximum(center_y + half_h, 0.0), height)
        return track_idx, x_min, y_min, x_max, y_max

    def _compute_feature_rows(self, frames: np.ndarray) -> np.ndarray:
        """Feature matrix for a batch of frames, as one array program."""
        grid = FEATURE_GRID
        cell_w = self.spec.width / grid
        cell_h = self.spec.height / grid
        frame_area = float(self.spec.width * self.spec.height)
        out = np.zeros((frames.size, FEATURE_DIM), dtype=np.float64)
        row_of_pair, pair_pos = self._pair_positions(frames)
        if pair_pos.size:
            _, x_min, y_min, x_max, y_max = self._pair_boxes(pair_pos)
            track_idx = self._pair_tracks[pair_pos]
            area_fraction = ((x_max - x_min) * (y_max - y_min)) / frame_area
            center_x = (x_min + x_max) / 2.0
            center_y = (y_min + y_max) / 2.0
            col = np.clip(np.floor_divide(center_x, cell_w), 0, grid - 1).astype(
                np.int64
            )
            row = np.clip(np.floor_divide(center_y, cell_h), 0, grid - 1).astype(
                np.int64
            )
            cell = row * grid + col
            # Colour is weighted by the object's *linear* size fraction: a
            # real specialized CNN sees the frame resized to ~65x65 pixels,
            # where visibility scales with linear extent, so small-but-real
            # objects stay above the observation-noise floor.
            weight = np.minimum(1.0, 3.0 * np.sqrt(area_fraction))
            colors = self._track_color[track_idx]
            area_term = 10.0 * area_fraction
            base = row_of_pair * FEATURE_DIM + cell * FEATURE_CHANNELS
            flat = out.reshape(-1)
            # np.add.at is unbuffered: repeated cells accumulate in pair
            # order, the per-track addition order of the scalar oracle.
            np.add.at(flat, base + 0, weight * colors[:, 0] / 255.0)
            np.add.at(flat, base + 1, weight * colors[:, 1] / 255.0)
            np.add.at(flat, base + 2, weight * colors[:, 2] / 255.0)
            np.add.at(flat, base + 3, 1.0)
            np.add.at(flat, base + 4, area_term)
            global_base = row_of_pair * FEATURE_DIM
            np.add.at(flat, global_base + (FEATURE_DIM - 3), 1.0)
            np.add.at(flat, global_base + (FEATURE_DIM - 2), area_term)
        out[:, FEATURE_DIM - 1] = 0.5 + 0.1 * np.sin(
            2.0 * np.pi * frames / max(self.spec.num_frames, 1)
        )
        # Per-frame observation noise: one Philox stream per (video seed,
        # frame) key, produced by re-keying one bit generator.
        noise_streams = RekeyedPhilox(self.spec.seed & 0xFFFFFFFF)
        for row_idx, frame_index in enumerate(frames.tolist()):
            out[row_idx] += noise_streams.rekey(frame_index).normal(
                0.0, 0.03, size=FEATURE_DIM
            )
        return out

    # -- columnar object access (vectorized detection path) ------------------

    def frame_object_table(self, frame_indices: np.ndarray | list[int]) -> "FrameObjectTable":
        """Columnar ground-truth objects for a batch of frames.

        The struct-of-arrays counterpart of calling :meth:`objects_at` per
        frame: one row per visible (frame, track) pair, in the exact order
        ``objects_at`` lists them, with boxes already clipped to the frame.
        The simulated detector builds its per-video kernel from this table
        of every frame, once, instead of materialising ``GroundTruthObject``
        instances.
        """
        indices = np.asarray(frame_indices, dtype=np.int64)
        bad = (indices < 0) | (indices >= self.spec.num_frames)
        if bad.any():
            self._check_frame(int(indices[np.argmax(bad)]))
        row_of_pair, pair_pos = self._pair_positions(indices)
        lengths = self._frame_offsets[indices + 1] - self._frame_offsets[indices]
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)]
        )
        if pair_pos.size == 0:
            empty_f = np.zeros(0, dtype=np.float64)
            empty_i = np.zeros(0, dtype=np.int64)
            return FrameObjectTable(
                frame_row=empty_i,
                offsets=offsets,
                track_ids=empty_i,
                class_codes=empty_i,
                class_names=list(self._track_class_names),
                x_min=empty_f,
                y_min=empty_f,
                x_max=empty_f,
                y_max=empty_f,
                colors=np.zeros((0, 3), dtype=np.float64),
                color_codes=empty_i,
                color_names=list(self._track_color_names),
            )
        track_idx, x_min, y_min, x_max, y_max = self._pair_boxes(pair_pos)
        return FrameObjectTable(
            frame_row=row_of_pair,
            offsets=offsets,
            track_ids=self._track_id[track_idx],
            class_codes=self._track_class_code[track_idx],
            class_names=list(self._track_class_names),
            x_min=x_min,
            y_min=y_min,
            x_max=x_max,
            y_max=y_max,
            colors=self._track_color[track_idx],
            color_codes=self._track_color_code[track_idx],
            color_names=list(self._track_color_names),
        )

    # -- splitting -----------------------------------------------------------

    def slice(self, start_frame: int, end_frame: int, name: str | None = None) -> "SyntheticVideo":
        """Return a new video containing only ``[start_frame, end_frame)``.

        Track frame indices are re-based so the slice starts at frame zero,
        mirroring how the paper splits a stream into training / held-out /
        test days.
        """
        if not 0 <= start_frame < end_frame <= self.spec.num_frames:
            raise ValueError(
                f"invalid slice [{start_frame}, {end_frame}) of "
                f"{self.spec.num_frames} frames"
            )
        new_tracks = []
        for track in self.tracks:
            lo = max(track.start_frame, start_frame)
            hi = min(track.end_frame, end_frame)
            if lo >= hi:
                continue
            elapsed = lo - track.start_frame
            new_tracks.append(
                Track(
                    track_id=track.track_id,
                    object_class=track.object_class,
                    start_frame=lo - start_frame,
                    end_frame=hi - start_frame,
                    start_x=track.start_x + track.velocity_x * elapsed,
                    start_y=track.start_y + track.velocity_y * elapsed,
                    velocity_x=track.velocity_x,
                    velocity_y=track.velocity_y,
                    width=track.width,
                    height=track.height,
                    color_name=track.color_name,
                    color=track.color,
                )
            )
        new_spec = VideoSpec(
            name=name or f"{self.spec.name}[{start_frame}:{end_frame}]",
            width=self.spec.width,
            height=self.spec.height,
            fps=self.spec.fps,
            num_frames=end_frame - start_frame,
            object_classes=self.spec.object_classes,
            seed=self.spec.seed,
        )
        return SyntheticVideo(new_spec, new_tracks)
