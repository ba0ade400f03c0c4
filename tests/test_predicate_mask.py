"""Selection's object-level predicates on columns.

``predicate_mask`` must select exactly the rows the scalar reference
``oracle.detection_matches`` accepts, and a UDF predicate must run only on
the rows that passed the column predicates (and every UDF before it).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.frameql.analyzer import (
    QueryKind,
    SelectionQuerySpec,
    SpatialConstraint,
    UdfPredicate,
)
from repro.optimizer.operators import predicate_mask
from repro.udf.registry import UDF, UDFRegistry

from oracle import detection_matches

AXES = ("xmin", "ymin", "xmax", "ymax")
OPS = ("=", "!=", "<", "<=", ">", ">=")
AXIS_COLUMN = dict(zip(AXES, range(4)))


class _Spy:
    """A UDF's object function that records every detection it is shown."""

    def __init__(self, fn):
        self.fn = fn
        self.seen = []

    def __call__(self, det):
        self.seen.append((det.frame_index, det.box.as_tuple()))
        return self.fn(det)


def _registry(**fns):
    registry = UDFRegistry()
    spies = {}
    for name, fn in fns.items():
        spies[name] = _Spy(fn)
        registry.register(UDF(name=name, object_fn=spies[name]))
    return registry, spies


def _spec(**fields):
    return SelectionQuerySpec(
        video="v", kind=QueryKind.SELECTION, raw_query=None, **fields
    )


def _random_spec(rng, batch, case):
    box = batch.box
    area = batch.area()
    axis = AXES[case % 4]
    op = OPS[(case // 4) % 6]
    # Half the values are taken from the column, so "=" and the inclusive
    # operators meet equality.
    column = box[:, AXIS_COLUMN[axis]]
    value = float(rng.choice(column)) if rng.random() < 0.5 else float(rng.uniform(0, 1280))
    constraints = [SpatialConstraint(axis=axis, op=op, value=value)]
    if rng.random() < 0.3:
        other = AXES[int(rng.integers(4))]
        constraints.append(
            SpatialConstraint(
                axis=other,
                op=OPS[int(rng.integers(6))],
                value=float(rng.choice(box[:, AXIS_COLUMN[other]])),
            )
        )
    return _spec(
        object_class=[None, "car", "bus", "truck"][int(rng.integers(4))],
        min_area=None if rng.random() < 0.5 else float(rng.choice(area)),
        max_area=None if rng.random() < 0.5 else float(rng.choice(area)) * 2.0,
        spatial_constraints=constraints,
        udf_predicates=[
            UdfPredicate(
                udf_name="width",
                column="mask",
                op=OPS[int(rng.integers(6))],
                value=float(rng.choice(box[:, 2] - box[:, 0])),
            )
        ],
    )


def test_mask_equals_the_scalar_predicate(tiny_recorded):
    batch = tiny_recorded.batch
    detections = batch.objects(np.arange(batch.class_code.size))
    rng = np.random.default_rng(7)
    selected_some = 0
    for case in range(96):  # every axis x operator, four times over
        spec = _random_spec(rng, batch, case)
        registry, spies = _registry(width=lambda det: det.box.width)
        mask = predicate_mask(batch, spec, registry)
        assert mask.dtype == np.bool_ and mask.shape == (len(detections),)
        column_only = predicate_mask(
            batch, dataclasses.replace(spec, udf_predicates=[]), UDFRegistry()
        )
        # The UDF saw exactly the column-passing rows, in row order.
        assert spies["width"].seen == [
            (det.frame_index, det.box.as_tuple())
            for det, ok in zip(detections, column_only, strict=True)
            if ok
        ]
        expected = [detection_matches(det, spec, registry) for det in detections]
        assert mask.tolist() == expected, case
        selected_some += bool(mask.any())
    assert selected_some > 10


def test_second_udf_sees_only_rows_passing_the_first(tiny_recorded):
    batch = tiny_recorded.batch
    registry, spies = _registry(x=lambda det: det.box.x_min, w=lambda det: det.box.width)
    spec = _spec(
        object_class="car",
        udf_predicates=[
            UdfPredicate(udf_name="x", column="mask", op="<", value=600.0),
            UdfPredicate(udf_name="w", column="mask", op=">", value=40.0),
        ],
    )
    mask = predicate_mask(batch, spec, registry)
    cars = batch.objects(np.flatnonzero(batch.class_code == batch.class_table.index("car")))
    assert len(spies["x"].seen) == len(cars)
    assert spies["w"].seen == [
        (det.frame_index, det.box.as_tuple()) for det in cars if det.box.x_min < 600.0
    ]
    assert mask.sum() == sum(
        det.box.x_min < 600.0 and det.box.width > 40.0 for det in cars
    )


@pytest.mark.parametrize("object_class", ["truck", None])
def test_no_udf_runs_when_no_row_passes(tiny_recorded, object_class):
    batch = tiny_recorded.batch
    registry, spies = _registry(width=lambda det: det.box.width)
    spec = _spec(
        object_class=object_class,
        spatial_constraints=[SpatialConstraint(axis="xmin", op="<", value=-1.0)],
        udf_predicates=[UdfPredicate(udf_name="width", column="mask", op=">", value=0.0)],
    )
    assert not predicate_mask(batch, spec, registry).any()
    assert spies["width"].seen == []
