"""Filter-cascade operator and the shared object-level predicate mask."""

from __future__ import annotations

import numpy as np

from repro.core.context import ExecutionContext
from repro.detection.columnar import DetectionBatch
from repro.frameql.analyzer import SelectionQuerySpec
from repro.metrics.runtime import RuntimeLedger
from repro.optimizer.operators.base import PhysicalOperator
from repro.selection.inference import FilterInferenceInputs, infer_selection_plan
from repro.selection.plan import SelectionPlan
from repro.udf.registry import UDFRegistry

_OP_FUNCS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


#: Column of ``DetectionBatch.box`` holding each mask extent.
_AXIS_COLUMN = {"xmin": 0, "ymin": 1, "xmax": 2, "ymax": 3}


def predicate_mask(
    batch: DetectionBatch, spec: SelectionQuerySpec, udf_registry: UDFRegistry
) -> np.ndarray:
    """Which rows of ``batch`` satisfy the query's object-level predicates.

    The class, area and spatial predicates are one boolean mask over the
    columns.  UDF predicates then run in query order, each on the
    ``Detection`` objects of the rows still selected, so a UDF only ever sees
    a row that passed the column predicates and every UDF before it.
    """
    mask = np.ones(batch.class_code.size, dtype=np.bool_)
    if spec.object_class is not None:
        if spec.object_class in batch.class_table:
            mask &= batch.class_code == batch.class_table.index(spec.object_class)
        else:
            mask[:] = False
    if spec.min_area is not None or spec.max_area is not None:
        area = batch.area()
        if spec.min_area is not None:
            mask &= ~(area <= spec.min_area)
        if spec.max_area is not None:
            mask &= ~(area >= spec.max_area)
    for constraint in spec.spatial_constraints:
        extent = batch.box[:, _AXIS_COLUMN[constraint.axis]]
        mask &= _OP_FUNCS[constraint.op](extent, constraint.value)
    if spec.udf_predicates:
        rows = np.flatnonzero(mask)
        objects = batch.objects(rows)
        for predicate in spec.udf_predicates:
            if not objects:
                break
            udf = udf_registry.get(predicate.udf_name)
            compare = _OP_FUNCS[predicate.op]
            passed = [bool(compare(udf.object_fn(det), predicate.value)) for det in objects]
            rows = rows[np.asarray(passed, dtype=np.bool_)]
            objects = [det for det, ok in zip(objects, passed, strict=True) if ok]
        mask[:] = False
        mask[rows] = True
    return mask


class FilterCascade(PhysicalOperator):
    """Infer and apply the cheapest-first frame-filter pipeline (Section 8.1).

    Calibrates the applicable filter classes (temporal, spatial, content,
    label) against the labeled set with no-false-negative thresholds, so the
    cascade can only discard frames that would not have matched — selection
    plans verify every survivor with the detector, keeping the paper's
    "false negatives only" error accounting.
    """

    name = "FilterCascade"

    def __init__(
        self,
        spec: SelectionQuerySpec,
        enabled_filter_classes: set[str] | None,
    ) -> None:
        self.spec = spec
        self.enabled_filter_classes = enabled_filter_classes

    def describe(self) -> str:
        enabled = (
            ", ".join(sorted(self.enabled_filter_classes))
            if self.enabled_filter_classes is not None
            else "all"
        )
        return f"FilterCascade(classes={enabled})"

    def build(
        self, context: ExecutionContext, ledger: RuntimeLedger
    ) -> SelectionPlan:
        """Infer the calibrated filter pipeline for this query and video."""
        if self.enabled_filter_classes is not None and not self.enabled_filter_classes:
            return SelectionPlan()
        labeled = context.labeled_set
        if labeled is None:
            # No labeled set: only query-derived (temporal/spatial) filters can
            # be inferred, and only when explicitly enabled.
            return SelectionPlan()
        inputs = self._inference_inputs(context)
        training_ledger = ledger if context.config.include_training_time else None
        return infer_selection_plan(
            spec=self.spec,
            unseen_video=context.video,
            inputs=inputs,
            ledger=training_ledger,
            training_config=context.config.training,
            enabled_filter_classes=self.enabled_filter_classes,
            model_type=context.config.specialized_model_type,
        )

    def _inference_inputs(self, context: ExecutionContext) -> FilterInferenceInputs:
        return FilterInferenceInputs(
            labeled=context.require_labeled_set(),
            heldout_positive_mask=self._heldout_positive_mask(context),
        )

    def _heldout_positive_mask(self, context: ExecutionContext) -> np.ndarray:
        """Held-out frames whose recorded detections satisfy the full predicate."""
        batch = context.require_labeled_set().heldout_recorded.batch
        return batch.frame_counts(predicate_mask(batch, self.spec, context.udf_registry)) > 0
