"""Round-trip tests for the service wire codecs (events, results, hints).

The byte-identity contract of the query service rests on these codecs being
lossless: every event and result that crosses the wire must deserialize to
an object whose canonical form equals the original's.  Floats are the sharp
edge — ``json`` uses shortest-round-trip repr, so IEEE-754 doubles survive
exactly — and these tests pin that down with awkward values.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import types
from typing import Any, Union, get_args, get_origin

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import wire
from repro.api.hints import QueryHints, StopConditions
from repro.core.events import (
    Completed,
    EstimateUpdate,
    ExecutionEvent,
    Progress,
    ScrubbingHit,
    SelectionWindow,
    ShardProgress,
    event_wire_types,
)
from repro.core.results import (
    AggregateResult,
    ExactResult,
    QueryResult,
    ScrubbingQueryResult,
    SelectionResult,
)
from repro.errors import ConfigurationError
from repro.frameql.records import RecordTable
from repro.frameql.schema import FrameRecord
from repro.metrics.runtime import ExecutionLedger, RuntimeLedger
from repro.obs.metrics import get_registry, record_execution_ledger
from repro.service.protocol import (
    event_from_json,
    event_to_json,
    hints_from_json,
    hints_to_json,
    ledger_from_json,
    ledger_to_json,
    result_fingerprint,
    result_from_json,
    result_to_json,
)
from repro.video.geometry import BoundingBox

#: Floats chosen to break any codec that goes through decimal rounding.
AWKWARD = [0.1, 1 / 3, 2**-45, 1e300, -1.5e-17, 123456789.000000001]


def make_ledger() -> ExecutionLedger:
    return ExecutionLedger(
        charges={"mask_rcnn": 0.1 * 123},
        calls={"mask_rcnn": 123},
        detector_calls=123,
        frames_decoded=456,
        detection_cache_hits=7,
        shared_cache_hits=8,
        index_hits=11,
        index_skips=12,
        batches_emitted=9,
        events_emitted=10,
        wall_seconds=1.234567890123,
    )


def make_record(features: bool = True) -> FrameRecord:
    return FrameRecord(
        timestamp=AWKWARD[0],
        frame_index=42,
        object_class="car",
        mask=BoundingBox(1.5, 2.25, 100.125, 200.0625),
        trackid=7,
        features=np.linspace(0.0, 1.0, 16) if features else None,
        confidence=AWKWARD[1],
        color=(12.5, 99.875, 3.0),
        color_name="white",
    )


class TestEventRoundTrip:
    def test_wire_registry_covers_all_events(self):
        names = event_wire_types()
        assert set(names) == {
            "progress",
            "shard_progress",
            "estimate_update",
            "scrubbing_hit",
            "selection_window",
            "completed",
        }

    @pytest.mark.parametrize(
        "event",
        [
            Progress(phase="detection_scan", frames_scanned=10, total_frames=100),
            ShardProgress(
                shard=2,
                start_frame=0,
                end_frame=50,
                frames_computed=5,
                shard_frames=50,
                done=False,
            ),
            EstimateUpdate(
                estimate=AWKWARD[2],
                half_width=AWKWARD[3],
                samples_used=77,
                confidence=0.95,
            ),
            ScrubbingHit(
                frame_index=9, timestamp=AWKWARD[4], hits_so_far=1, limit=10
            ),
            SelectionWindow(
                start_frame=3, end_frame=8, matched_frames=12, windows_so_far=2
            ),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_non_terminal_events_round_trip(self, event):
        payload = json.loads(json.dumps(event_to_json(event)))
        restored = event_from_json(payload)
        assert restored == event

    def test_completed_round_trips_with_result(self):
        result = AggregateResult(
            kind="aggregate",
            method="sampling",
            ledger=make_ledger(),
            detection_calls=123,
            plan_description="p",
            value=AWKWARD[1],
            error_tolerance=0.05,
            confidence=0.95,
            samples_used=321,
            half_width=AWKWARD[2],
            correlation=None,
            stop_reason=None,
        )
        event = Completed(result=result, stop_reason="ci_width")
        restored = event_from_json(json.loads(json.dumps(event_to_json(event))))
        assert isinstance(restored, Completed)
        assert restored.stop_reason == "ci_width"
        assert result_fingerprint(restored.result) == result_fingerprint(result)

    def test_unknown_event_rejected_typed(self):
        with pytest.raises(ConfigurationError):
            event_from_json({"v": 1, "event": "nonsense", "data": {}})

    def test_absent_required_field_rejected_typed(self):
        with pytest.raises(ConfigurationError, match="Progress needs field 'phase'"):
            event_from_json({"v": 1, "event": "progress", "data": {}})
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            event_from_json({"v": 1, "event": "progress"})


class TestLedgerRoundTrip:
    def test_execution_ledger_round_trips(self):
        ledger = make_ledger()
        restored = ledger_from_json(json.loads(json.dumps(ledger_to_json(ledger))))
        assert isinstance(restored, ExecutionLedger)
        assert restored == ledger  # wall_seconds is compare=False by design
        assert restored.wall_seconds == ledger.wall_seconds
        assert restored.detector_calls == ledger.detector_calls
        assert restored.index_hits == ledger.index_hits
        assert restored.index_skips == ledger.index_skips

    def test_pre_index_payload_defaults_counters_to_zero(self):
        # Payloads written before the index counters existed must still load.
        payload = ledger_to_json(make_ledger())
        del payload["index_hits"]
        del payload["index_skips"]
        restored = ledger_from_json(payload)
        assert isinstance(restored, ExecutionLedger)
        assert restored.index_hits == 0
        assert restored.index_skips == 0
        # Only fields with a default may be absent.
        del payload["charges"], payload["calls"], payload["wall_seconds"]
        assert ledger_from_json(payload).detector_calls == 123
        with pytest.raises(ConfigurationError, match="unknown RuntimeLedger type None"):
            ledger_from_json({})

    def test_every_counter_is_carried_by_every_fold(self):
        inherited = {f.name for f in dataclasses.fields(RuntimeLedger)}
        counters = [
            f
            for f in dataclasses.fields(ExecutionLedger)
            if f.name not in inherited and not f.name.startswith("_")
        ]
        ledger = ExecutionLedger(
            **{
                field.name: type(field.default)(value)
                for value, field in enumerate(counters, start=1)
            }
        )
        expected = {f.name: getattr(ledger, f.name) for f in counters}
        assert len(set(expected.values())) == len(counters) >= 9

        def read(source: RuntimeLedger) -> dict[str, Any]:
            return {name: getattr(source, name) for name in expected}

        assert read(ledger.snapshot()) == expected
        merged = ExecutionLedger()
        merged.merge(ledger)
        merged.merge(ledger)
        assert read(merged) == {name: 2 * value for name, value in expected.items()}
        on_the_wire = json.loads(json.dumps(ledger_to_json(ledger)))
        assert {name: on_the_wire[name] for name in expected} == expected
        assert read(ledger_from_json(on_the_wire)) == expected

        metered = {
            f.metadata["metric"]: expected[f.name] for f in counters if "metric" in f.metadata
        }
        assert "repro_shared_cache_hits_total" in metered
        registry = get_registry()
        registry.reset()
        try:
            record_execution_ledger("probe", ledger)
            recorded = registry.snapshot()["counters"]
            for metric, value in metered.items():
                assert recorded[f'{metric}{{kind="probe"}}'] == value
        finally:
            registry.reset()

    def test_plain_runtime_ledger_round_trips(self):
        ledger = RuntimeLedger()
        ledger.charge_seconds("yolo", 0.25)
        restored = ledger_from_json(json.loads(json.dumps(ledger_to_json(ledger))))
        assert not isinstance(restored, ExecutionLedger)
        assert restored.charges == ledger.charges
        assert restored.calls == ledger.calls


class TestResultRoundTrip:
    def test_aggregate_exact_floats(self):
        for value in AWKWARD:
            result = AggregateResult(
                kind="aggregate",
                method="sampling",
                ledger=make_ledger(),
                detection_calls=1,
                plan_description="p",
                value=value,
                error_tolerance=None,
                confidence=0.95,
                samples_used=5,
                half_width=value / 3 if value else 0.0,
                correlation=0.5,
            )
            restored = result_from_json(
                json.loads(json.dumps(result_to_json(result)))
            )
            assert isinstance(restored, AggregateResult)
            assert restored.value == value  # bitwise, not approx
            assert result_fingerprint(restored) == result_fingerprint(result)

    def test_scrubbing_round_trips(self):
        result = ScrubbingQueryResult(
            kind="scrubbing",
            method="importance",
            ledger=make_ledger(),
            detection_calls=9,
            plan_description="p",
            frames=[3, 99, 1024],
            timestamps=[0.1, 3.3, 34.133333333333333],
            limit=3,
            satisfied=True,
            stop_reason="limit",
        )
        restored = result_from_json(json.loads(json.dumps(result_to_json(result))))
        assert isinstance(restored, ScrubbingQueryResult)
        assert restored.frames == result.frames
        assert restored.timestamps == result.timestamps
        assert result_fingerprint(restored) == result_fingerprint(result)

    def test_selection_with_records_and_features(self):
        result = SelectionResult(
            kind="selection",
            method="filtered_scan",
            ledger=make_ledger(),
            detection_calls=9,
            plan_description="p",
            records=RecordTable.from_records([make_record(True), make_record(False)]),
            matched_frames=[42],
            frames_scanned=100,
            frames_after_filters=60,
        )
        restored = result_from_json(json.loads(json.dumps(result_to_json(result))))
        assert isinstance(restored, SelectionResult)
        first = restored.records[0]
        assert first.mask == make_record().mask
        np.testing.assert_array_equal(first.features, make_record().features)
        assert first.features.dtype == np.float64
        assert restored.records[1].features is None
        assert result_fingerprint(restored) == result_fingerprint(result)

    def test_exact_round_trips(self):
        result = ExactResult(
            kind="exact",
            method="full_scan",
            ledger=make_ledger(),
            detection_calls=400,
            plan_description="p",
            records=RecordTable.from_records([make_record()]),
            value=17.0,
        )
        restored = result_from_json(json.loads(json.dumps(result_to_json(result))))
        assert isinstance(restored, ExactResult)
        assert restored.value == 17.0
        assert result_fingerprint(restored) == result_fingerprint(result)

    def test_unknown_result_type_rejected(self):
        with pytest.raises(ConfigurationError):
            result_from_json({"type": "mystery"})

    def test_absent_required_field_rejected_typed(self):
        payload = result_to_json(QueryResult(kind="aggregate", method="m"))
        del payload["plan_description"]  # has a default
        assert result_from_json(payload).plan_description == ""
        del payload["kind"]
        with pytest.raises(ConfigurationError, match="QueryResult needs field 'kind'"):
            result_from_json(payload)

    def test_key_added_by_a_newer_peer_is_skipped(self):
        # The mirror of the default for an absent key; only request types
        # (hints, stop conditions, quotas) reject what they do not know.
        payload = result_to_json(QueryResult(kind="aggregate", method="m"))
        assert result_to_json(result_from_json({**payload, "added_later": 1})) == payload

    def test_fingerprint_ignores_wall_seconds_only(self):
        def build(wall: float, calls: int) -> QueryResult:
            ledger = ExecutionLedger(wall_seconds=wall, detector_calls=calls)
            return QueryResult(
                kind="aggregate",
                method="m",
                ledger=ledger,
                detection_calls=calls,
                plan_description="p",
            )

        assert result_fingerprint(build(1.0, 5)) == result_fingerprint(build(2.0, 5))
        assert result_fingerprint(build(1.0, 5)) != result_fingerprint(build(1.0, 6))


class TestHintsRoundTrip:
    def test_full_hints_round_trip(self):
        hints = QueryHints(
            scrubbing_indexed=True,
            selection_filter_classes=frozenset({"label", "spatial"}),
            stop_conditions=StopConditions(
                limit=5, ci_width=0.125, max_detector_calls=99
            ),
            batch_size=64,
            parallelism=4,
            backend="processes",
            use_index=False,
        )
        assert hints_from_json(hints_to_json(hints)) == hints

    def test_defaults_and_none(self):
        assert hints_from_json(None) is None
        assert hints_from_json({}) == QueryHints()
        assert hints_to_json(QueryHints()) == {}

    def test_unknown_field_rejected_typed(self):
        with pytest.raises(ConfigurationError, match="unknown QueryHints fields.*valid fields"):
            hints_from_json({"turbo": True})

    def test_unknown_stop_condition_key_rejected_typed(self):
        # A typo'd budget used to be dropped: the query ran with no budget at all.
        with pytest.raises(
            ConfigurationError,
            match="unknown StopConditions fields.*max_detector_cals.*max_detector_calls",
        ):
            hints_from_json({"stop_conditions": {"max_detector_cals": 100}})

    def test_invalid_values_rejected_typed(self):
        with pytest.raises(ConfigurationError):
            hints_from_json({"stop_conditions": {"limit": 0}})
        with pytest.raises(ConfigurationError):
            hints_from_json({"selection_filter_classes": "label"})
        with pytest.raises(ConfigurationError):
            hints_from_json({"stop_conditions": [1, 2]})
        # Leaves are type-checked: a truthy string is not a bool, a float is
        # not an int, and a bool is not a number.
        with pytest.raises(ConfigurationError, match="expected a JSON bool"):
            hints_from_json({"scrubbing_indexed": "no"})
        with pytest.raises(ConfigurationError, match="expected a JSON int"):
            hints_from_json({"stop_conditions": {"limit": 1.5}})
        with pytest.raises(ConfigurationError, match="expected a JSON int"):
            hints_from_json({"parallelism": True})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"backend": 3}, "expected a JSON str"),
            ({"trace": 1}, "expected a JSON bool"),
            ({"stop_conditions": {"ci_width": True}}, "expected a JSON number"),
            ({"stop_conditions": {"ci_width": "0.1"}}, "expected a JSON number"),
        ],
    )
    def test_leaf_of_wrong_type_rejected_typed(self, payload, message):
        with pytest.raises(ConfigurationError, match=message):
            hints_from_json(payload)

    def test_float_leaf_accepts_a_json_integer(self):
        hints = hints_from_json({"stop_conditions": {"ci_width": 1}})
        assert hints.stop_conditions.ci_width == 1.0
        assert type(hints.stop_conditions.ci_width) is float


def _column(values: list[Any], dtype: str) -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


#: A well-formed two-record table payload; each malformed case below changes
#: one key.
TABLE = {
    "n": 2,
    "timestamp": _column([0.1, 0.2], "<f8"),
    "frame_index": _column([3, 4], "<i8"),
    "class_code": _column([0, 1], "<i4"),
    "class_table": ["bus", "car"],
    "box": _column([1.5, 2.0, 3.0, 4.0, 0.0, 0.0, 1.0, 1.0], "<f8"),
    "track_id": _column([7, -(2**63)], "<i8"),
    "feature_len": _column([2, -1], "<i4"),
    "features_flat": _column([0.5, 1.0], "<f8"),
    "confidence": _column([0.9, 0.5], "<f8"),
    "color": _column([1.0, 2.0, 3.5, 0.0, 0.0, 0.0], "<f8"),
    "has_color": _column([1, 0], "u1"),
    "color_name_code": _column([0, -1], "<i4"),
    "color_name_table": ["red"],
}

#: The records ``TABLE`` holds.
TABLE_RECORDS = [
    FrameRecord(
        timestamp=0.1,
        frame_index=3,
        object_class="bus",
        mask=BoundingBox(1.5, 2.0, 3.0, 4.0),
        trackid=7,
        features=np.array([0.5, 1.0]),
        confidence=0.9,
        color=(1.0, 2.0, 3.5),
        color_name="red",
    ),
    FrameRecord(
        timestamp=0.2, frame_index=4, object_class="car", mask=BoundingBox(0, 0, 1, 1),
        confidence=0.5,
    ),
]


class TestRecordTableRejections:
    """The column decoder checks whole columns: every malformed payload is a
    :class:`ConfigurationError` (which the service answers with a 400)."""

    def test_well_formed_table_decodes_to_its_records(self):
        table = RecordTable.from_wire(TABLE)
        assert list(table) == TABLE_RECORDS
        assert table.to_wire() == TABLE
        assert RecordTable.from_records(TABLE_RECORDS).to_wire() == TABLE

    @pytest.mark.parametrize(
        "change",
        [
            # bad base64
            {"timestamp": "not base64!"},
            {"confidence": "AAAAAAAA8D"},
            {"box": 3},
            # wrong byte length for n
            {"frame_index": _column([3], "<i8")},
            {"frame_index": _column([3, 4], "<i4")},
            {"box": _column([1.5, 2.0, 3.0, 4.0], "<f8")},
            {"color": _column([0.0] * 7, "<f8")},
            {"has_color": _column([1, 0, 1], "u1")},
            {"features_flat": _column([0.5, 1.0], "<f8")[:-4]},
            # a code outside its table
            {"class_code": _column([0, 2], "<i4")},
            {"class_code": _column([-1, 0], "<i4")},
            {"color_name_code": _column([1, -1], "<i4")},
            {"color_name_code": _column([0, -2], "<i4")},
            # feature lengths that do not cover the feature column
            {"feature_len": _column([1, -1], "<i4")},
            {"feature_len": _column([2, 1], "<i4")},
            {"feature_len": _column([4, -2], "<i4")},
            # an invalid box
            {"box": _column([3.0, 2.0, 1.5, 4.0, 0.0, 0.0, 1.0, 1.0], "<f8")},
            {"box": _column([1.5, 2.0, 3.0, 4.0, 0.0, 1.0, 1.0, 0.5], "<f8")},
            # a colour flag other than 0 or 1
            {"has_color": _column([2, 0], "u1")},
            # a row count that is not a non-negative JSON integer
            {"n": True},
            {"n": -1},
            {"n": 2.0},
            {"n": "2"},
            # a string table that is not a list of strings
            {"class_table": ["bus", 3]},
            {"class_table": ["bus", None]},
            {"color_name_table": "red"},
            # unknown keys
            {"extra": 1},
            {"det_offsets": _column([0, 1, 2], "<i8")},
        ],
        ids=repr,
    )
    def test_malformed_table_rejected(self, change):
        with pytest.raises(ConfigurationError):
            RecordTable.from_wire({**TABLE, **change})

    @pytest.mark.parametrize("key", sorted(TABLE))
    def test_missing_key_rejected(self, key):
        payload = {k: v for k, v in TABLE.items() if k != key}
        with pytest.raises(ConfigurationError, match=f"lacks keys \\['{key}'\\]"):
            RecordTable.from_wire(payload)

    @pytest.mark.parametrize("payload", [3, [], [TABLE], None], ids=repr)
    def test_payload_that_is_not_an_object_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            RecordTable.from_wire(payload)

    @pytest.mark.parametrize(
        "change",
        [
            {"frame_index": 2**63},
            {"trackid": -(2**63)},
            {"trackid": 2**64},
            {"trackid": 1.5},
            {"object_class": 3},
            {"color_name": 3},
            {"color": (1.0, 2.0)},
        ],
        ids=repr,
    )
    def test_hand_built_records_checked_alike(self, change):
        # The table's frame and track columns are int64; the minimum int64
        # is the track-id column's None.
        records = [dataclasses.replace(TABLE_RECORDS[0], **change), TABLE_RECORDS[1]]
        with pytest.raises(ConfigurationError):
            RecordTable.from_records(records)


# -- every registered wire class, instances built from the field types ----------------

_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
)
#: An int64 other than its minimum (the track-id column's ``None``).
_INT64 = st.integers(-(2**63) + 1, 2**63 - 1)
_ATOMS: dict[Any, st.SearchStrategy[Any]] = {
    int: st.integers(),
    float: st.floats(allow_nan=False),
    str: st.text(),
    bool: st.booleans(),
    Any: _SCALARS,
    np.ndarray: st.lists(st.floats(allow_nan=False), max_size=4).map(
        lambda values: np.array(values, dtype=np.float64)
    ),
    # The one wire type whose constructor rejects some field values.
    BoundingBox: st.tuples(*[st.floats(allow_nan=False)] * 4).map(
        lambda c: BoundingBox(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
    ),
    # Records travel as a column table, whose frame and track ids are int64.
    RecordTable: st.deferred(
        lambda: st.lists(
            instances_of(FrameRecord, frame_index=_INT64, trackid=st.none() | _INT64),
            max_size=3,
        ).map(RecordTable.from_records)
    ),
}


def values_of(tp: Any) -> st.SearchStrategy[Any]:
    """A strategy for one field type; a type the codec gains needs a line here."""
    if tp in _ATOMS:
        return _ATOMS[tp]
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):
        return st.one_of(*(values_of(arg) for arg in args))
    if tp is type(None):
        return st.none()
    if origin is list:
        return st.lists(values_of(args[0]), max_size=3)
    if origin is tuple and args[-1] is ...:
        return st.lists(values_of(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*(values_of(arg) for arg in args))
    if origin is frozenset:
        return st.frozensets(values_of(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(st.text(), values_of(args[1]), max_size=3)
    if issubclass(tp, wire.Tagged) and tp.wire_key is not None:
        return st.one_of(*(instances_of(cls) for cls in tp.wire_types.values()))
    return instances_of(tp)


def wire_fields(cls: type) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.init and not f.name.startswith("_")]


def instances_of(cls: type, **overrides: st.SearchStrategy[Any]) -> st.SearchStrategy[Any]:
    return st.builds(
        cls,
        **{
            f.name: overrides[f.name] if f.name in overrides else values_of(wire._hint(cls, f.name))
            for f in wire_fields(cls)
        },
    )


def assert_same(restored: Any, original: Any) -> None:
    assert type(restored) is type(original)
    if isinstance(original, np.ndarray):
        assert restored.dtype == original.dtype
        np.testing.assert_array_equal(restored, original)
    elif dataclasses.is_dataclass(original):
        for f in wire_fields(type(original)):
            assert_same(getattr(restored, f.name), getattr(original, f.name))
    elif isinstance(original, (list, tuple, RecordTable)):
        assert len(restored) == len(original)
        for pair in zip(restored, original, strict=True):
            assert_same(*pair)
    elif isinstance(original, dict):
        assert restored.keys() == original.keys()
        for key, value in original.items():
            assert_same(restored[key], value)
    else:
        assert restored == original


@pytest.mark.parametrize(
    "cls",
    [*event_wire_types().values(), *QueryResult.wire_types.values()],
    ids=lambda cls: cls.__name__,
)
@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_every_registered_wire_class_round_trips(cls, data):
    original = data.draw(instances_of(cls))
    if isinstance(original, ExecutionEvent):
        to_json, from_json = event_to_json, event_from_json
    else:
        to_json, from_json = result_to_json, result_from_json
    payload = json.loads(json.dumps(to_json(original)))
    restored = from_json(payload)
    assert_same(restored, original)
    assert json.loads(json.dumps(to_json(restored))) == payload
