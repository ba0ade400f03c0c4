"""Selection plans: an ordered pipeline of filters followed by detection."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.runtime import RuntimeLedger
from repro.selection.filters import FrameFilter
from repro.video.frame_batch import FrameBatch


@dataclass
class SelectionPlan:
    """An ordered filter pipeline and the detection cost scale it implies.

    Filters are applied in order; the surviving frames are handed to the
    object detector.  Spatial filters contribute a multiplicative reduction of
    detection cost (cropping/resizing) rather than pruning frames.
    """

    filters: list[FrameFilter] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def detection_cost_scale(self) -> float:
        """Combined detection cost multiplier from all (spatial) filters."""
        scale = 1.0
        for filter_ in self.filters:
            scale *= filter_.detection_cost_scale
        return scale

    def filter_classes(self) -> list[str]:
        """The classes of the filters in the plan, in order."""
        return [filter_.filter_class for filter_ in self.filters]

    def apply_batch(
        self, batch: FrameBatch, ledger: RuntimeLedger | None = None
    ) -> FrameBatch:
        """Run the cascade columnar: one shared feature matrix, masked down.

        Feature-scoring filters (content, label) consume the batch's feature
        matrix, which is computed once for the whole cascade; every stage
        narrows the same batch with a boolean mask instead of regathering
        features for its survivor list.
        """
        for filter_ in self.filters:
            batch = filter_.apply_batch(batch, ledger)
            if len(batch) == 0:
                break
        return batch

    def describe(self) -> str:
        """Human-readable one-line description of the plan."""
        if not self.filters:
            return "no filters (detect every frame)"
        parts = [
            f"{filter_.filter_class}:{filter_.name}" for filter_ in self.filters
        ]
        return " -> ".join(parts) + f" -> detect (cost x{self.detection_cost_scale:.2f})"
