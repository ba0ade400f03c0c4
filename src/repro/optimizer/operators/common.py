"""Shared helpers for the aggregate-query operators.

These small pure functions encode unit conventions every aggregate stage must
agree on (per-frame means vs totals, CI half-width scaling) and the
labeled-set-derived sampling parameters; they live here so ``FullScan``, the
sampler (``RandomSampler`` / ``ControlVariateSampler``: one body, two names)
and ``SpecializedInference`` all share one definition.
"""

from __future__ import annotations

from repro.core.context import ExecutionContext
from repro.core.events import ExecutionControl
from repro.frameql.analyzer import AggregateQuerySpec
from repro.metrics.runtime import ExecutionLedger


def finalize_aggregate(
    spec: AggregateQuerySpec, mean_per_frame: float, num_frames: int
) -> float:
    """Convert the frame-averaged mean to the query's requested statistic."""
    if spec.aggregate in ("fcount", "avg"):
        return mean_per_frame
    if spec.aggregate == "count":
        return mean_per_frame * num_frames
    return mean_per_frame


def width_scale(spec: AggregateQuerySpec, num_frames: int) -> float:
    """Factor putting CI half-widths in the streamed estimate's units.

    :func:`finalize_aggregate` scales ``COUNT`` estimates from per-frame means
    to totals; events and ``ci_width`` stop checks must scale the half-width
    identically or "estimate ± half_width" would be off by ``num_frames``.
    The result's ``half_width`` field stays in per-frame units, matching the
    blocking API's historical contract.
    """
    return float(num_frames) if spec.aggregate == "count" else 1.0


def count_value_range(spec: AggregateQuerySpec, context: ExecutionContext) -> float:
    """``K``: the range of the per-frame count, from the labeled set."""
    labeled = context.labeled_set
    if labeled is not None and spec.object_class is not None:
        train_max = int(labeled.train_counts(spec.object_class).max(initial=0))
        heldout_max = int(labeled.heldout_counts(spec.object_class).max(initial=0))
        return float(max(train_max, heldout_max) + 1)
    return 2.0


def budget_sample_cap(control: ExecutionControl, ledger: ExecutionLedger) -> int | None:
    """The sampling loop's sample cap: what is left of the detector budget."""
    budget = control.stop.max_detector_calls
    if budget is None:
        return None
    return max(1, budget - ledger.detector_calls)
