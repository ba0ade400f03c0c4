"""The labeled set: detector output over the training and held-out days.

Section 2: "we assume that a small representative sample of the video is
annotated with an object detector: this data is used as training data for
filters and specialized NNs ... This labeled set can be constructed once,
offline, and shared for multiple queries later."  The paper uses one day of
video for training labels and one day for threshold computation; the
reproduction mirrors that with the ``train`` and ``heldout`` splits of a
scenario.

Building the labeled set is an offline step whose cost is *not* charged to
query ledgers (matching the paper's measurement methodology); what *is*
charged per query is specialized-NN training on top of the labeled set, when
``include_training_time`` is enabled.

The labeled set also owns the specialized NNs fitted on it.  A fit reads
only the training day's features, labels the labeled set derives by class,
and the model's own settings (kind, class, model type, hidden size,
``TrainingConfig``, seed), never an execution's RNG; so :meth:`LabeledSet.
fitted` trains each configuration once and hands every later query the
same model, which is exactly the model a fresh fit returns.  Every request,
first or not, replays the fit's ledger charges call by call in the fit's
order, so the simulated clock still charges training per query and every
ledger stays bit for bit what a fresh fit would leave: only real wall time
falls.
"""

from __future__ import annotations

from typing import TypeVar, cast

import numpy as np

from repro.core.recorded import RecordedDetections
from repro.detection.base import ObjectDetector
from repro.metrics.runtime import ChargeLog, RuntimeLedger
from repro.specialization.binary_model import BinaryPresenceModel
from repro.specialization.count_model import CountSpecializedModel
from repro.specialization.trainer import TrainingConfig
from repro.sync import Guarded
from repro.video.synthetic import SyntheticVideo

#: A specialized NN the labeled set fits: per-frame counts or presence of one class.
Model = TypeVar("Model", CountSpecializedModel, BinaryPresenceModel)

#: What a fit depends on besides the labeled set: the model's own settings.
_FitKey = tuple[type, str, str, int, TrainingConfig, int]
_Fit = tuple[CountSpecializedModel | BinaryPresenceModel, ChargeLog]


class LabeledSet:
    """Features and detector labels for the training and held-out days."""

    def __init__(
        self,
        train_video: SyntheticVideo,
        heldout_video: SyntheticVideo,
        train_recorded: RecordedDetections,
        heldout_recorded: RecordedDetections,
    ) -> None:
        self.train_video = train_video
        self.heldout_video = heldout_video
        self.train_recorded = train_recorded
        self.heldout_recorded = heldout_recorded
        self._fitted: Guarded[dict[_FitKey, _Fit]] = Guarded({})

    @classmethod
    def build(
        cls,
        train_video: SyntheticVideo,
        heldout_video: SyntheticVideo,
        detector: ObjectDetector,
    ) -> "LabeledSet":
        """Run the detector over both days and assemble the labeled set."""
        return cls(
            train_video=train_video,
            heldout_video=heldout_video,
            train_recorded=RecordedDetections.build(train_video, detector),
            heldout_recorded=RecordedDetections.build(heldout_video, detector),
        )

    # -- features ----------------------------------------------------------------

    @property
    def train_features(self) -> np.ndarray:
        """Cheap per-frame features of the training day (the video's memo)."""
        return self.train_video.all_features()

    @property
    def heldout_features(self) -> np.ndarray:
        """Cheap per-frame features of the held-out day (the video's memo)."""
        return self.heldout_video.all_features()

    # -- labels ------------------------------------------------------------------

    def train_counts(self, object_class: str) -> np.ndarray:
        """Per-frame detector counts of one class on the training day."""
        return self.train_recorded.counts(object_class)

    def heldout_counts(self, object_class: str) -> np.ndarray:
        """Per-frame detector counts of one class on the held-out day."""
        return self.heldout_recorded.counts(object_class)

    def train_presence(self, object_class: str) -> np.ndarray:
        """Boolean per-frame presence of one class on the training day."""
        return self.train_recorded.presence(object_class)

    def heldout_presence(self, object_class: str) -> np.ndarray:
        """Boolean per-frame presence of one class on the held-out day."""
        return self.heldout_recorded.presence(object_class)

    def training_positives(self, object_class: str) -> int:
        """Number of training-day frames containing at least one instance."""
        return int(self.train_presence(object_class).sum())

    def training_instances(self, min_counts: dict[str, int]) -> int:
        """Number of training-day frames satisfying a count conjunction."""
        return int(self.train_recorded.frames_satisfying(min_counts).size)

    # -- specialized models ------------------------------------------------------

    def fitted(self, model: Model, ledger: RuntimeLedger | None = None) -> Model:
        """``model``'s configuration fitted on the training day; charges ``ledger``.

        A count model learns its class's per-frame counts, a presence model
        their presence.  The first request for a configuration fits
        ``model`` itself; later ones get that fitted model back (``model`` is
        then dropped).  Either way the fit's charges are replayed onto
        ``ledger``.  No lock is held while training: two first requests
        that race both train, and the first to finish is kept (the two are
        equal).  Fitted models are read-only from here on.
        """
        key: _FitKey = (
            type(model),
            model.object_class,
            model.model_type,
            model.hidden_size,
            model.training_config,
            model.seed,
        )
        with self._fitted as memo:
            entry = memo.get(key)
        if entry is None:
            labels = (
                self.train_counts(model.object_class)
                if isinstance(model, CountSpecializedModel)
                else self.train_presence(model.object_class)
            )
            charges = ChargeLog()
            model.fit(self.train_features, labels, charges)
            with self._fitted as memo:
                entry = memo.setdefault(key, (model, charges))
        fitted, charges = entry
        if ledger is not None:
            charges.replay(ledger)
        return cast(Model, fitted)
