"""Per-video statistics computed from labeled sets (Section 5).

The cost-based optimizer needs a statistical picture of each registered video
to price alternative operator trees: how many frames a scan would touch, how
frequent each object class is, how variable its per-frame count is (which
drives the CLT sample-size estimates of the sampling operators), how expensive
one detector invocation is, and how selective inferred filters are likely to
be.  All of it is derived from the labeled set — the train/held-out detector
runs the engine already builds offline — so the catalog costs nothing extra.

Statistics are *estimates about the unseen test day* computed from the
held-out day; they steer planning and explanations, never correctness (every
plan remains exact or explicitly error-bounded regardless of how wrong the
statistics are).
"""

from __future__ import annotations

import io
import json
import zipfile
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ConfigurationError
from repro.metrics.runtime import StandardCosts
from repro.persist import atomic_write_npz, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.labeled_set import LabeledSet

#: Safety factor applied to presence-rate-derived filter survival estimates:
#: no-false-negative thresholds keep every positive frame plus a margin of
#: negatives, so survivors exceed the raw presence rate.
_SURVIVAL_SLACK = 3.0

#: Additive floor on filter survival: even a rare class keeps a small residue
#: of false-positive frames past the calibrated thresholds.
_SURVIVAL_FLOOR = 0.15

_JSON_FORMAT = "statistics-catalog/v1"
_NPZ_FORMAT = "statistics-catalog/v2-npz"
#: Leading bytes of a zip archive, which is what an ``.npz`` file is.  Used
#: to sniff the on-disk format so ``load`` needs no format argument (the same
#: convention as ``SharedDetectionCache``).
_ZIP_MAGIC = b"PK\x03\x04"


@dataclass(frozen=True)
class ClassStatistics:
    """Summary statistics for one object class on one video's labeled set.

    Attributes
    ----------
    object_class:
        The class name (``"car"``, ``"bus"``, ...).
    training_positives:
        Training-day frames containing at least one instance; gates whether
        specialization is worth attempting (``min_training_positives``).
    presence_rate:
        Fraction of held-out frames containing at least one instance — the
        class frequency, and the lower bound of any no-false-negative filter's
        pass rate.
    mean_count:
        Held-out mean per-frame count (the quantity ``FCOUNT`` estimates).
    count_std:
        Held-out standard deviation of the per-frame count; drives the CLT
        sample-size estimates for the sampling operators.
    max_count:
        Largest per-frame count seen on either labeled day; ``max_count + 1``
        is the epsilon-net value range ``K``.
    """

    object_class: str
    training_positives: int
    presence_rate: float
    mean_count: float
    count_std: float
    max_count: int

    @property
    def value_range(self) -> float:
        """``K``, the per-frame count range used by the epsilon-net minimum."""
        return float(self.max_count + 1)


@dataclass(frozen=True, eq=False)
class VideoStatistics:
    """Everything the cost model knows about one registered video.

    Built once per video from its labeled set (see :meth:`from_labeled_set`)
    and held in the engine's :class:`StatisticsCatalog`.  The per-class count
    arrays of both labeled days are retained so conjunction event rates
    (scrubbing predicates over several classes) can be estimated for any
    query without re-reading the recordings.
    """

    video: str
    num_frames: int
    train_frames: int
    heldout_frames: int
    detector_seconds_per_call: float
    training_epochs: int
    classes: Mapping[str, ClassStatistics]
    _train_counts: Mapping[str, np.ndarray] = field(default_factory=dict, repr=False)
    _heldout_counts: Mapping[str, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def from_labeled_set(
        cls,
        video: str,
        num_frames: int,
        labeled: LabeledSet,
        detector_seconds_per_call: float,
        training_epochs: int = 2,
    ) -> VideoStatistics:
        """Compute the full statistics block from a labeled set."""
        observed = sorted(
            labeled.train_recorded.observed_classes()
            | labeled.heldout_recorded.observed_classes()
        )
        train_counts: dict[str, np.ndarray] = {}
        heldout_counts: dict[str, np.ndarray] = {}
        classes: dict[str, ClassStatistics] = {}
        for object_class in observed:
            train = labeled.train_counts(object_class)
            heldout = labeled.heldout_counts(object_class)
            train_counts[object_class] = train
            heldout_counts[object_class] = heldout
            classes[object_class] = ClassStatistics(
                object_class=object_class,
                training_positives=int((train > 0).sum()),
                presence_rate=float((heldout > 0).mean()) if heldout.size else 0.0,
                mean_count=float(heldout.mean()) if heldout.size else 0.0,
                count_std=float(heldout.std(ddof=1)) if heldout.size > 1 else 0.0,
                max_count=int(
                    max(train.max(initial=0), heldout.max(initial=0))
                ),
            )
        return cls(
            video=video,
            num_frames=num_frames,
            train_frames=labeled.train_video.num_frames,
            heldout_frames=labeled.heldout_video.num_frames,
            detector_seconds_per_call=detector_seconds_per_call,
            training_epochs=training_epochs,
            classes=classes,
            _train_counts=train_counts,
            _heldout_counts=heldout_counts,
        )

    # -- per-class lookups ---------------------------------------------------------

    def class_stats(self, object_class: str | None) -> ClassStatistics | None:
        """Statistics for one class, or ``None`` when it was never observed."""
        if object_class is None:
            return None
        return self.classes.get(object_class)

    def count_std(self, object_class: str | None) -> float:
        """Held-out per-frame count standard deviation (0 for unseen classes)."""
        stats = self.class_stats(object_class)
        return stats.count_std if stats is not None else 0.0

    def value_range(self, object_class: str | None) -> float:
        """``K`` for the epsilon-net minimum, mirroring the plans' fallback.

        An unseen class has a labeled-set maximum count of zero, so its range
        is 1 — exactly what the aggregate plan computes at execution time.
        """
        stats = self.class_stats(object_class)
        if stats is not None:
            return stats.value_range
        return 1.0

    # -- query-shaped estimates ------------------------------------------------------

    def event_rate(self, min_counts: Mapping[str, int]) -> float:
        """Held-out fraction of frames satisfying a count conjunction.

        Classes never observed on the labeled days contribute zero counts, so
        a conjunction over an unknown class has rate 0 — matching the
        scrubbing plan's runtime fallback to an exhaustive scan.
        """
        if not min_counts or self.heldout_frames == 0:
            return 0.0
        mask = np.ones(self.heldout_frames, dtype=bool)
        for object_class, min_count in min_counts.items():
            counts = self._heldout_counts.get(object_class)
            if counts is None:
                return 0.0
            mask &= counts >= min_count
        return float(mask.mean())

    def training_event_count(self, min_counts: Mapping[str, int]) -> int:
        """Training-day frames satisfying a count conjunction.

        This is the same quantity the scrubbing plan checks at execution time
        to decide between importance ranking and the exhaustive fallback.
        """
        if not min_counts or self.train_frames == 0:
            return 0
        mask = np.ones(self.train_frames, dtype=bool)
        for object_class, min_count in min_counts.items():
            counts = self._train_counts.get(object_class)
            if counts is None:
                return 0
            mask &= counts >= min_count
        return int(mask.sum())

    def _heldout_window(self, start: int, end: int) -> tuple[int, int]:
        """Map a test-day frame range onto the held-out day's timeline.

        Shards partition the *test* video, whose statistics we only know by
        proxy: the held-out day covers the same scene over (possibly) a
        different frame count, so positions are scaled proportionally.  The
        window is widened outward (floor/ceil) and never empty.
        """
        if self.num_frames <= 0 or self.heldout_frames <= 0:
            return 0, 0
        scale = self.heldout_frames / self.num_frames
        lo = max(0, int(np.floor(start * scale)))
        hi = min(self.heldout_frames, int(np.ceil(end * scale)))
        if hi <= lo:
            hi = min(self.heldout_frames, lo + 1)
        return lo, hi

    def range_event_rate(self, min_counts: Mapping[str, int], start: int, end: int) -> float:
        """Held-out event rate of a count conjunction within one frame range.

        The per-shard analogue of :meth:`event_rate`, used by the video
        sharder to order shards by estimated hit density and to mark
        statically-cold shards prunable.  Estimates steer scheduling only —
        a pruned shard is still scanned if the query turns out to need it.
        """
        if not min_counts:
            return 0.0
        lo, hi = self._heldout_window(start, end)
        if hi <= lo:
            return 0.0
        mask = np.ones(hi - lo, dtype=bool)
        for object_class, min_count in min_counts.items():
            counts = self._heldout_counts.get(object_class)
            if counts is None:
                return 0.0
            mask &= counts[lo:hi] >= min_count
        return float(mask.mean())

    def range_presence_rate(self, object_class: str | None, start: int, end: int) -> float:
        """Held-out presence rate of one class within one frame range.

        Like :meth:`range_event_rate` but for single-class predicates
        (aggregates and selections).  A class the labeled set never observed
        yields 0.0 only when other classes *were* observed — with an empty
        catalog entry everything stays unpruned.
        """
        if object_class is None:
            return 1.0
        lo, hi = self._heldout_window(start, end)
        if hi <= lo:
            return 0.0
        counts = self._heldout_counts.get(object_class)
        if counts is None:
            return 0.0 if self._heldout_counts else 1.0
        return float((counts[lo:hi] > 0).mean())

    def selection_survival(self, object_class: str | None) -> float:
        """Estimated fraction of frames surviving an inferred filter cascade.

        No-false-negative calibration keeps every positive frame plus a
        data-dependent margin of negatives; the estimate is the presence rate
        with a generous slack and floor, clipped to 1.  A class the labeled
        set never saw gives no trainable filter, so everything survives.
        """
        stats = self.class_stats(object_class)
        if stats is None:
            return 1.0
        return float(
            min(1.0, stats.presence_rate * _SURVIVAL_SLACK + _SURVIVAL_FLOOR)
        )

    # -- persistence ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form, per-class count arrays included.

        The count arrays are what shard pruning and conjunction event rates
        are computed from, so persisting them keeps every catalog capability
        intact across processes.
        """
        return {
            "video": self.video,
            "num_frames": self.num_frames,
            "train_frames": self.train_frames,
            "heldout_frames": self.heldout_frames,
            "detector_seconds_per_call": self.detector_seconds_per_call,
            "training_epochs": self.training_epochs,
            "classes": {
                name: {
                    "training_positives": stats.training_positives,
                    "presence_rate": stats.presence_rate,
                    "mean_count": stats.mean_count,
                    "count_std": stats.count_std,
                    "max_count": stats.max_count,
                }
                for name, stats in self.classes.items()
            },
            "train_counts": {
                name: np.asarray(counts, dtype=np.int64).tolist()
                for name, counts in self._train_counts.items()
            },
            "heldout_counts": {
                name: np.asarray(counts, dtype=np.int64).tolist()
                for name, counts in self._heldout_counts.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> VideoStatistics:
        """Inverse of :meth:`to_dict`."""
        classes = {
            name: ClassStatistics(
                object_class=name,
                training_positives=int(entry["training_positives"]),
                presence_rate=float(entry["presence_rate"]),
                mean_count=float(entry["mean_count"]),
                count_std=float(entry["count_std"]),
                max_count=int(entry["max_count"]),
            )
            for name, entry in payload["classes"].items()
        }
        return cls(
            video=str(payload["video"]),
            num_frames=int(payload["num_frames"]),
            train_frames=int(payload["train_frames"]),
            heldout_frames=int(payload["heldout_frames"]),
            detector_seconds_per_call=float(payload["detector_seconds_per_call"]),
            training_epochs=int(payload["training_epochs"]),
            classes=classes,
            _train_counts={
                name: np.asarray(counts, dtype=np.int64)
                for name, counts in payload["train_counts"].items()
            },
            _heldout_counts={
                name: np.asarray(counts, dtype=np.int64)
                for name, counts in payload["heldout_counts"].items()
            },
        )

    # -- cost conversions ----------------------------------------------------------------

    def detector_seconds(self, calls: int) -> float:
        """Simulated seconds for ``calls`` detector invocations on this video."""
        return calls * self.detector_seconds_per_call

    def specialized_training_seconds(self) -> float:
        """Simulated cost of training one specialized NN on the labeled set.

        Matches the trainer's accounting: one ``specialized_nn_train`` charge
        per training example per epoch.
        """
        return (
            self.train_frames
            * self.training_epochs
            * StandardCosts.SPECIALIZED_NN_TRAIN.seconds_per_call
        )

    def specialized_inference_seconds(self, frames: int) -> float:
        """Simulated cost of running a specialized NN over ``frames`` frames."""
        return frames * StandardCosts.SPECIALIZED_NN.seconds_per_call

    def filter_seconds(self, frames: int) -> float:
        """Simulated cost of one simple (non-NN) filter pass over ``frames``."""
        return frames * StandardCosts.SIMPLE_FILTER.seconds_per_call


class StatisticsCatalog:
    """Registry of :class:`VideoStatistics`, one entry per registered video."""

    def __init__(self) -> None:
        self._stats: dict[str, VideoStatistics] = {}

    def register(self, stats: VideoStatistics) -> None:
        """Insert (or replace) the statistics block for one video."""
        self._stats[stats.video] = stats

    def register_from_labeled_set(
        self,
        video: str,
        num_frames: int,
        labeled: LabeledSet,
        detector_seconds_per_call: float,
        training_epochs: int = 2,
    ) -> VideoStatistics:
        """Compute and register statistics for a video's labeled set."""
        stats = VideoStatistics.from_labeled_set(
            video,
            num_frames,
            labeled,
            detector_seconds_per_call,
            training_epochs=training_epochs,
        )
        self.register(stats)
        return stats

    def get(self, video: str) -> VideoStatistics | None:
        """The statistics block for a video, or ``None`` if never registered."""
        return self._stats.get(video)

    def names(self) -> list[str]:
        """Names of all videos with registered statistics."""
        return sorted(self._stats)

    # -- persistence ------------------------------------------------------------------

    def save(self, path: str | Path, format: str = "json") -> None:
        """Write every video's statistics (count arrays included) to disk.

        ``format="json"`` (the default) keeps the human-readable v1 layout;
        ``format="npz"`` writes the binary columnar layout, which stops the
        large per-class count arrays round-tripping through JSON text.
        Either way the file round-trips through :meth:`load` (which sniffs
        the format), so shard pruning and cost estimates survive across
        sessions without re-running the detector over the labeled days.  The
        write is atomic (temp file + rename), so a process killed mid-save
        never corrupts the catalog.
        """
        if format not in ("json", "npz"):
            raise ConfigurationError(
                f"unknown catalog format {format!r}: expected 'json' or 'npz'"
            )
        if format == "json":
            payload = {
                "format": _JSON_FORMAT,
                "videos": [self._stats[name].to_dict() for name in self.names()],
            }
            atomic_write_text(path, json.dumps(payload))
            return
        metas: list[dict[str, Any]] = []
        arrays: dict[str, np.ndarray] = {
            "catalog_format": np.asarray(_NPZ_FORMAT)
        }
        for position, name in enumerate(self.names()):
            entry = self._stats[name].to_dict()
            train = entry.pop("train_counts")
            heldout = entry.pop("heldout_counts")
            count_classes = sorted(set(train) | set(heldout))
            entry["count_classes"] = count_classes
            metas.append(entry)
            for column, class_name in enumerate(count_classes):
                arrays[f"train_{position}_{column}"] = np.asarray(
                    train.get(class_name, []), dtype=np.int64
                )
                arrays[f"heldout_{position}_{column}"] = np.asarray(
                    heldout.get(class_name, []), dtype=np.int64
                )
        arrays["meta"] = np.asarray(json.dumps(metas))
        atomic_write_npz(path, arrays)

    @classmethod
    def load(cls, path: str | Path) -> StatisticsCatalog:
        """Rebuild a catalog saved by :meth:`save` (either format).

        The on-disk format is sniffed from the leading bytes — ``.npz``
        archives are zip files — so old JSON catalogs keep loading
        unchanged.  The result can be handed straight to
        ``BlazeIt(catalog=...)``; registering a video with a labeled set
        later still refreshes its entry.
        """
        raw_bytes = Path(path).read_bytes()
        if raw_bytes[:4] == _ZIP_MAGIC:
            return cls._load_npz(raw_bytes, path)
        raw = json.loads(raw_bytes.decode("utf-8"))
        if raw.get("format") != _JSON_FORMAT:
            raise ConfigurationError(f"{path} is not a statistics-catalog file")
        catalog = cls()
        for entry in raw["videos"]:
            catalog.register(VideoStatistics.from_dict(entry))
        return catalog

    @classmethod
    def _load_npz(cls, raw: bytes, path: str | Path) -> StatisticsCatalog:
        """Decode the binary columnar layout written by ``save(format='npz')``."""
        try:
            with np.load(io.BytesIO(raw), allow_pickle=False) as archive:
                if "catalog_format" not in archive.files or (
                    str(np.asarray(archive["catalog_format"])) != _NPZ_FORMAT
                ):
                    raise ConfigurationError(
                        f"{path} is not a statistics-catalog file"
                    )
                metas = json.loads(str(np.asarray(archive["meta"])))
                catalog = cls()
                for position, entry in enumerate(metas):
                    count_classes = entry.pop("count_classes")
                    entry["train_counts"] = {
                        name: np.asarray(
                            archive[f"train_{position}_{column}"], dtype=np.int64
                        )
                        for column, name in enumerate(count_classes)
                    }
                    entry["heldout_counts"] = {
                        name: np.asarray(
                            archive[f"heldout_{position}_{column}"], dtype=np.int64
                        )
                        for column, name in enumerate(count_classes)
                    }
                    catalog.register(VideoStatistics.from_dict(entry))
        except ConfigurationError:
            raise
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise ConfigurationError(
                f"{path} is not a statistics-catalog file: {exc}"
            ) from exc
        return catalog

    def __contains__(self, video: str) -> bool:
        return video in self._stats

    def __len__(self) -> int:
        return len(self._stats)
