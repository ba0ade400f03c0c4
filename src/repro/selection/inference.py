"""Filter inference: from a FrameQL query to a selection plan (Section 8.1).

Given a :class:`~repro.frameql.analyzer.SelectionQuerySpec` and labelled
held-out data, infer which filter classes apply and calibrate their
parameters:

1. **Spatial** — if the query constrains the mask's extent, crop to the
   implied region of interest (detection runs faster on smaller inputs).
2. **Temporal** — if the query requires an object to persist for ``K`` frames,
   subsample once every ``(K - 1) // 2`` frames; time-range predicates
   restrict the scanned interval.
3. **Content** — for each continuous UDF predicate, compute the frame-level
   score on the held-out set and calibrate a no-false-negative threshold; keep
   the filter only if it actually discards frames.
4. **Label** — fit a binary presence model for the queried class on the
   labeled set (once per configuration, :meth:`LabeledSet.fitted`) and
   calibrate its threshold for no false negatives on the held-out set.

The ordering of the produced plan is cheapest-first (temporal and spatial are
free, content filters run at ~100,000 fps, the label NN at ~10,000 fps), which
is also what the paper's rule-based optimizer does implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.frameql.analyzer import SelectionQuerySpec
from repro.metrics.runtime import RuntimeLedger
from repro.selection.filters import (
    ContentFilter,
    LabelFilter,
    SpatialFilter,
    TemporalFilter,
    feature_level_score,
)
from repro.selection.plan import SelectionPlan
from repro.specialization.binary_model import BinaryPresenceModel
from repro.specialization.calibration import calibrate_no_false_negative_threshold
from repro.specialization.trainer import TrainingConfig
from repro.video.synthetic import SyntheticVideo

if TYPE_CHECKING:  # pragma: no cover - typing only (core imports the optimizer)
    from repro.core.labeled_set import LabeledSet

#: UDFs that have a frame-level feature implementation and can therefore be
#: inferred as content filters.
_CONTENT_FILTER_UDFS = {"redness", "blueness", "brightness"}

#: A content filter must discard at least this fraction of held-out frames to
#: be worth keeping in the plan.
_MIN_USEFUL_DISCARD = 0.02


@dataclass
class FilterInferenceInputs:
    """Data the filter inference step needs beyond the query itself.

    Attributes
    ----------
    labeled:
        The labeled set: the training day the label filter's model is fitted
        on (:meth:`LabeledSet.fitted`) and the held-out day its thresholds
        are calibrated on.
    heldout_positive_mask:
        Boolean per-frame mask of held-out frames that satisfy the *full*
        selection predicate (class + UDFs); used to calibrate no-false-negative
        thresholds.
    """

    labeled: LabeledSet
    heldout_positive_mask: np.ndarray


def _infer_spatial(spec: SelectionQuerySpec, video: SyntheticVideo) -> SpatialFilter | None:
    if not spec.spatial_constraints:
        return None
    x_min, y_min = 0.0, 0.0
    x_max, y_max = float(video.spec.width), float(video.spec.height)
    for constraint in spec.spatial_constraints:
        if constraint.axis == "xmax" and constraint.op in ("<", "<="):
            x_max = min(x_max, constraint.value)
        elif constraint.axis == "xmin" and constraint.op in (">", ">="):
            x_min = max(x_min, constraint.value)
        elif constraint.axis == "ymax" and constraint.op in ("<", "<="):
            y_max = min(y_max, constraint.value)
        elif constraint.axis == "ymin" and constraint.op in (">", ">="):
            y_min = max(y_min, constraint.value)
    if x_max <= x_min or y_max <= y_min:
        return None
    if x_min == 0 and y_min == 0 and x_max == video.spec.width and y_max == video.spec.height:
        return None
    return SpatialFilter(
        roi_x_min=x_min,
        roi_y_min=y_min,
        roi_x_max=x_max,
        roi_y_max=y_max,
        frame_width=float(video.spec.width),
        frame_height=float(video.spec.height),
    )


def _infer_temporal(spec: SelectionQuerySpec, video: SyntheticVideo) -> TemporalFilter | None:
    subsample_step = 1
    if spec.min_track_frames is not None and spec.min_track_frames >= 3:
        subsample_step = max(1, (spec.min_track_frames - 1) // 2)
    start_frame = None
    end_frame = None
    time_min, time_max = spec.time_range
    if time_min is not None:
        start_frame = video.frame_of_timestamp(time_min)
    if time_max is not None:
        end_frame = video.frame_of_timestamp(time_max)
    if subsample_step == 1 and start_frame is None and end_frame is None:
        return None
    return TemporalFilter(
        subsample_step=subsample_step, start_frame=start_frame, end_frame=end_frame
    )


def _infer_content(
    spec: SelectionQuerySpec, inputs: FilterInferenceInputs
) -> list[ContentFilter]:
    filters: list[ContentFilter] = []
    positives = np.asarray(inputs.heldout_positive_mask, dtype=bool)
    for predicate in spec.udf_predicates:
        if predicate.udf_name not in _CONTENT_FILTER_UDFS:
            continue
        if predicate.op not in (">", ">="):
            # Only lower-bound predicates translate into "keep high-score
            # frames" filters.
            continue
        scores = feature_level_score(inputs.labeled.heldout_features, predicate.udf_name)
        calibration = calibrate_no_false_negative_threshold(scores, positives)
        discarded = 1.0 - calibration.selectivity
        if discarded < _MIN_USEFUL_DISCARD:
            continue
        filters.append(
            ContentFilter(
                udf_name=predicate.udf_name,
                threshold=calibration.threshold,
                estimated_selectivity=calibration.selectivity,
            )
        )
    return filters


def _infer_label(
    spec: SelectionQuerySpec,
    inputs: FilterInferenceInputs,
    ledger: RuntimeLedger | None,
    training_config: TrainingConfig | None,
    model_type: str = "softmax",
) -> LabelFilter | None:
    if spec.object_class is None:
        return None
    labeled = inputs.labeled
    train_presence = labeled.train_presence(spec.object_class)
    if train_presence.sum() < 8 or (~train_presence).sum() < 8:
        # Not enough of both classes to train a meaningful presence model.
        return None
    model = labeled.fitted(
        BinaryPresenceModel(
            object_class=spec.object_class,
            model_type=model_type,
            training_config=training_config,
        ),
        ledger,
    )
    heldout_scores = model.predict_proba_present(labeled.heldout_features, ledger)
    calibration = calibrate_no_false_negative_threshold(
        heldout_scores, np.asarray(inputs.heldout_positive_mask, dtype=bool)
    )
    if 1.0 - calibration.selectivity < _MIN_USEFUL_DISCARD:
        # The no-false-negative threshold passes (almost) every held-out
        # frame, so running the NN per frame would cost more than it saves.
        return None
    return LabelFilter(
        model=model,
        threshold=calibration.threshold,
        estimated_selectivity=calibration.selectivity,
    )


def infer_selection_plan(
    spec: SelectionQuerySpec,
    unseen_video: SyntheticVideo,
    inputs: FilterInferenceInputs,
    ledger: RuntimeLedger | None = None,
    training_config: TrainingConfig | None = None,
    enabled_filter_classes: set[str] | None = None,
    model_type: str = "softmax",
) -> SelectionPlan:
    """Infer the full selection plan for a query.

    ``enabled_filter_classes`` restricts which filter classes may be used
    (``{"label", "content", "temporal", "spatial"}``); it exists for the
    factor-analysis and lesion-study benchmarks.
    """
    enabled = enabled_filter_classes or {"label", "content", "temporal", "spatial"}
    plan = SelectionPlan()

    if "temporal" in enabled:
        temporal = _infer_temporal(spec, unseen_video)
        if temporal is not None:
            plan.filters.append(temporal)
            plan.notes.append(
                f"temporal: step={temporal.subsample_step}, "
                f"range=[{temporal.start_frame}, {temporal.end_frame})"
            )
    if "spatial" in enabled:
        spatial = _infer_spatial(spec, unseen_video)
        if spatial is not None:
            plan.filters.append(spatial)
            plan.notes.append(
                f"spatial: detection cost x{spatial.detection_cost_scale:.2f}"
            )
    if "content" in enabled:
        for content in _infer_content(spec, inputs):
            plan.filters.append(content)
            plan.notes.append(
                f"content[{content.udf_name}]: threshold={content.threshold:.3f}, "
                f"selectivity={content.estimated_selectivity:.3f}"
            )
    if "label" in enabled:
        label = _infer_label(spec, inputs, ledger, training_config, model_type)
        if label is not None:
            plan.filters.append(label)
            plan.notes.append(
                f"label[{spec.object_class}]: threshold={label.threshold:.3f}, "
                f"selectivity={label.estimated_selectivity:.3f}"
            )
    return plan
