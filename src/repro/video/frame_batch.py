"""Columnar frame batches: feature matrices instead of ``Frame`` objects.

A :class:`FrameBatch` is a set of frame indices of one video plus the
(lazily computed, shared) feature matrix for those frames.  Feature-scoring
consumers — the selection filter cascade foremost — score the matrix with
one model call per batch instead of materialising
:class:`~repro.video.frame.Frame` objects, and narrow the batch with boolean
masks (:meth:`FrameBatch.select`) so the features are gathered exactly once
for a whole cascade.  (Plan-level chunking of detector work is separate: it
lives in ``ExecutionControl.batch_allowance`` and
``ExecutionContext.detect_batch``.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.video.synthetic import SyntheticVideo


class FrameBatch:
    """A columnar batch of frames: indices plus their shared feature matrix."""

    def __init__(
        self,
        video: SyntheticVideo,
        frame_indices: np.ndarray | list[int] | None = None,
        features: np.ndarray | None = None,
    ) -> None:
        self.video = video
        if frame_indices is None:
            frame_indices = np.arange(video.num_frames, dtype=np.int64)
        self.indices = np.asarray(frame_indices, dtype=np.int64)
        if features is not None and features.shape[0] != self.indices.size:
            raise ValueError(
                f"feature/index length mismatch: {features.shape[0]} vs "
                f"{self.indices.size}"
            )
        self._features = features

    def __len__(self) -> int:
        return int(self.indices.size)

    def __repr__(self) -> str:
        loaded = "loaded" if self._features is not None else "lazy"
        return f"FrameBatch({self.video.name!r}, {len(self)} frames, features={loaded})"

    # -- columns -------------------------------------------------------------

    @property
    def features(self) -> np.ndarray:
        """The batch's feature matrix, computed once and shared by selections."""
        if self._features is None:
            self._features = self.video.frame_features(self.indices)
        return self._features

    @property
    def features_loaded(self) -> bool:
        """Whether the feature matrix has been materialised yet."""
        return self._features is not None

    # -- narrowing -----------------------------------------------------------

    def select(self, mask: np.ndarray) -> "FrameBatch":
        """A sub-batch selected by a boolean mask (or index array) over rows.

        The feature matrix, if already computed, is sliced — not recomputed —
        so a filter cascade shares one gather across all its stages.
        """
        mask = np.asarray(mask)
        features = self._features[mask] if self._features is not None else None
        return FrameBatch(self.video, self.indices[mask], features)
