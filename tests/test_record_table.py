"""FrameQL records as columns.

A selection or exact result holds its rows as one
:class:`~repro.frameql.records.RecordTable`.  Read as records, encoded for
the wire or fingerprinted, it must equal the scalar reference
``oracle.reference_records`` — one ``FrameRecord`` built per tracked row —
for every shape of query that returns rows, and executing and encoding such
a query must build no record object at all.  The wire form is canonical:
equal tables encode to equal bytes, decoding and encoding again reproduces
the payload, and changing any one field of one record changes the
fingerprint.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api.hints import QueryHints, StopConditions
from repro.core.results import ExactResult, SelectionResult
from repro.frameql.records import RecordTable
from repro.frameql.schema import FrameRecord
from repro.optimizer.operators import TrackAggregator
from repro.service.protocol import result_fingerprint, result_to_json
from repro.video.geometry import BoundingBox

from oracle import reference_records

EXACT = "SELECT * FROM tiny"
SELECTIONS = {
    "class": "SELECT * FROM tiny WHERE class = 'car'",
    "area": "SELECT * FROM tiny WHERE class = 'bus' AND area(mask) > 60000",
    "spatial": "SELECT * FROM tiny WHERE class = 'car' AND xmin(mask) >= 640",
    "udf": "SELECT * FROM tiny WHERE class = 'bus' AND redness(content) >= 17.5",
    "min_track_frames": (
        "SELECT * FROM tiny WHERE class = 'car' GROUP BY trackid HAVING COUNT(*) > 15"
    ),
    "empty": "SELECT * FROM tiny WHERE class = 'car' AND area(mask) > 10000000",
}


@pytest.fixture()
def materialized(monkeypatch):
    """Every ``materialize`` call of the test: (its table, the reference)."""
    calls: list[tuple[RecordTable, list[FrameRecord]]] = []
    original = TrackAggregator.materialize

    def spy(self, tracks, keep=None, min_rows=1):
        table = original(self, tracks, keep, min_rows)
        calls.append((table, reference_records(tracks, keep, min_rows)))
        return table

    monkeypatch.setattr(TrackAggregator, "materialize", spy)
    return calls


def reference_result(result, records: list[FrameRecord]):
    """``result`` holding the reference records, as a hand-built table."""
    return dataclasses.replace(result, records=RecordTable.from_records(records))


def assert_matches_reference(result, expected: list[FrameRecord]) -> None:
    table = result.records
    assert isinstance(table, RecordTable)
    assert len(table) == len(expected)
    assert list(table) == expected
    assert table == expected
    for position in (0, len(expected) // 2, -1) if expected else ():
        assert table[position] == expected[position]
    assert table.frame_index.tolist() == [r.frame_index for r in expected]
    payload = json.loads(json.dumps(table.to_wire()))
    decoded = RecordTable.from_wire(payload)
    assert list(decoded) == expected
    assert decoded.to_wire() == payload
    reference = reference_result(result, expected)
    assert table.to_wire() == reference.records.to_wire()
    assert result_fingerprint(result) == result_fingerprint(reference)
    assert json.dumps(result_to_json(result)) == json.dumps(result_to_json(reference))


class TestTableEqualsReference:
    def test_exact(self, tiny_engine, materialized):
        result = tiny_engine.session().execute(EXACT)
        assert isinstance(result, ExactResult)
        (table, expected), = materialized
        assert table == RecordTable.from_records(expected)
        assert expected, "the tiny video must yield records"
        assert_matches_reference(result, expected)

    @pytest.mark.parametrize("shape", sorted(SELECTIONS))
    def test_selection(self, tiny_engine, materialized, shape):
        result = tiny_engine.session().execute(SELECTIONS[shape])
        assert isinstance(result, SelectionResult)
        table, expected = materialized[-1]
        assert table == RecordTable.from_records(expected)
        assert (len(expected) == 0) == (shape == "empty")
        assert_matches_reference(result, expected)
        assert result.matched_frames == sorted({r.frame_index for r in expected})

    @pytest.mark.parametrize("shape", ["class", "min_track_frames"])
    def test_limit_truncated_windows(self, tiny_engine, materialized, shape):
        prepared = tiny_engine.session().prepare(SELECTIONS[shape])
        full = prepared.execute()
        result = prepared.execute(stop=StopConditions(limit=2))
        assert result.stop_reason == "limit" or shape == "min_track_frames"
        assert 0 < len(result.records) < len(full.records)
        _, expected = materialized[-1]
        kept = set(result.matched_frames)
        assert_matches_reference(result, [r for r in expected if r.frame_index in kept])

    @pytest.mark.parametrize("query", [EXACT, SELECTIONS["class"]])
    def test_threads_backend(self, tiny_engine, materialized, query):
        sequential = tiny_engine.session().execute(query)
        threaded = tiny_engine.session().execute(
            query, hints=QueryHints(parallelism=2, backend="threads")
        )
        _, expected = materialized[-1]
        assert_matches_reference(threaded, expected)
        assert threaded.records == sequential.records
        assert result_fingerprint(threaded) == result_fingerprint(sequential)


def test_executing_and_encoding_builds_no_record(tiny_engine, monkeypatch):
    """Execution, the wire form and the fingerprint read the columns."""
    built: list[str] = []
    record_init = FrameRecord.__init__

    def counted_record(self, *args, **kwargs):
        built.append("FrameRecord")
        record_init(self, *args, **kwargs)

    def counted_box(self):
        built.append("BoundingBox")

    session = tiny_engine.session()
    prepared = session.prepare(EXACT)
    monkeypatch.setattr(FrameRecord, "__init__", counted_record)
    monkeypatch.setattr(BoundingBox, "__post_init__", counted_box)
    result = prepared.execute()
    result_to_json(result)
    result_fingerprint(result)
    assert len(result.records) > 0
    assert built == []
    result.records[0]  # a read builds one record, on access
    assert built == ["BoundingBox", "FrameRecord"]


def sample_records() -> list[FrameRecord]:
    """Five records covering every ``None`` and both classes and colour names."""
    return [
        FrameRecord(
            timestamp=0.1 * i,
            frame_index=10 + i,
            object_class=("car", "bus")[i % 2],
            mask=BoundingBox(i, i, i + 5.5, i + 7),
            trackid=None if i == 2 else i // 2,
            features=None if i == 1 else np.arange(float(i)),
            confidence=1 / (i + 1),
            color=None if i == 3 else (1.0, 2.0, float(i)),
            color_name=None if i == 0 else ("red", "white")[i % 2],
        )
        for i in range(5)
    ]


class TestRecordTable:
    @pytest.fixture()
    def records(self) -> list[FrameRecord]:
        return sample_records()

    def test_reads_as_a_sequence_of_records(self, records):
        table = RecordTable.from_records(records)
        assert len(table) == 5
        assert list(table) == records
        assert [table[i] for i in range(-5, 5)] == records + records
        assert table[1:4] == records[1:4]
        assert isinstance(table[::2], RecordTable)
        assert list(table[::-2]) == records[::-2]
        for position in (5, -6):
            with pytest.raises(IndexError):
                table[position]
        assert table.frame_index.tolist() == [10, 11, 12, 13, 14]
        assert list(table.select(table.frame_index % 2 == 0)) == records[::2]
        assert repr(table) == repr(records)

    def test_empty_table(self):
        empty = RecordTable.empty()
        assert len(empty) == 0
        assert list(empty) == []
        assert empty == [] and empty == RecordTable.from_records([])
        assert empty.to_wire()["n"] == 0
        assert RecordTable.from_wire(empty.to_wire()) == []
        with pytest.raises(IndexError):
            empty[0]

    def test_equality_is_by_value(self, records):
        table = RecordTable.from_records(records)
        assert table == RecordTable.from_records(records)
        assert table == tuple(records)
        assert table != records[:4]
        assert table != "not records"
        for change in (
            {"timestamp": 9.0},
            {"frame_index": 99},
            {"object_class": "truck"},
            {"mask": BoundingBox(0, 0, 1, 1)},
            {"trackid": 99},
            {"trackid": None},
            {"features": None},
            {"confidence": 0.5},
            {"color": None},
            {"color": (1.0, 2.0, 0.5)},
            {"color_name": "white"},
        ):
            changed = [dataclasses.replace(records[0], **change), *records[1:]]
            assert table != RecordTable.from_records(changed), change
            assert table != changed, change
        # The class tables are per batch: equal rows compare equal whatever
        # order the names were first seen in.
        assert table[1:] == RecordTable.from_records(records[1:])
        with pytest.raises(TypeError):
            hash(table)


#: Replacements of one field of one record (a change only where the record
#: holds another value).
CHANGES = (
    {"timestamp": 9.0},
    {"frame_index": 99},
    {"object_class": "truck"},
    {"mask": BoundingBox(0, 0, 1, 1)},
    {"trackid": 99},
    {"trackid": None},
    {"features": None},
    {"features": np.arange(1.0)},
    {"confidence": 0.5},
    {"color": None},
    {"color": (1.0, 2.0, 0.5)},
    {"color_name": "white"},
    {"color_name": None},
)


def _selection(table: RecordTable) -> SelectionResult:
    return SelectionResult(kind="selection", method="m", records=table)


def _relabelled(table: RecordTable, class_order, color_order) -> RecordTable:
    """``table`` over string tables in another order with unused names, and
    arbitrary colour values where ``has_color`` is false."""
    batch = table.batch
    classes = (*class_order, "unused-class")
    names = ("unused-name", *color_order)
    remap_class = np.asarray([classes.index(c) for c in batch.class_table], dtype=np.int32)
    remap_name = np.asarray([*(names.index(c) for c in batch.color_name_table), -1], dtype=np.int32)
    color = batch.color.copy()
    color[~batch.has_color] = (7.0, -8.0, 9.5)
    relabelled = dataclasses.replace(
        batch,
        class_code=remap_class[batch.class_code],
        class_table=classes,
        color_name_code=remap_name[batch.color_name_code],
        color_name_table=names,
        color=color,
        track_id=np.arange(len(table), dtype=np.int32),  # the detector's: not a record field
    )
    return RecordTable(relabelled, table.track_id.copy())


class TestCanonicalWireForm:
    @pytest.fixture()
    def records(self) -> list[FrameRecord]:
        return sample_records()

    def test_equal_tables_encode_to_equal_bytes(self, records):
        table = RecordTable.from_records(records)
        encoded = json.dumps(table.to_wire())
        fingerprint = result_fingerprint(_selection(table))
        for other in (
            RecordTable.from_records(records),
            _relabelled(table, ("car", "bus"), ("red", "white")),
            _relabelled(table, ("bus", "car"), ("white", "red")),
            RecordTable.from_records(records + records)[: len(records)],
            RecordTable.from_records(records[::-1])[::-1],
        ):
            assert other == table
            assert json.dumps(other.to_wire()) == encoded
            assert result_fingerprint(_selection(other)) == fingerprint

    def test_negative_zero_encodes_as_zero(self, records):
        zero = dataclasses.replace(records[0], timestamp=0.0, confidence=0.0)
        negative = dataclasses.replace(records[0], timestamp=-0.0, confidence=-0.0)
        tables = [RecordTable.from_records([record]) for record in (zero, negative)]
        assert tables[0] == tables[1]
        assert tables[0].to_wire() == tables[1].to_wire()

    def test_decode_then_encode_is_byte_identical(self, records):
        nul = [dataclasses.replace(r, object_class=f"{r.object_class}\x00") for r in records]
        for table in (
            RecordTable.from_records(records),
            _relabelled(RecordTable.from_records(records), ("car", "bus"), ("red", "white")),
            RecordTable.from_records(nul),  # a numpy str table would drop the NUL
            RecordTable.empty(),
        ):
            payload = json.loads(json.dumps(table.to_wire()))
            decoded = RecordTable.from_wire(payload)
            assert decoded == table and list(decoded) == list(table)
            assert json.dumps(decoded.to_wire()) == json.dumps(payload)

    def test_any_one_field_changes_the_fingerprint(self, records):
        base = result_fingerprint(_selection(RecordTable.from_records(records)))
        seen = set()
        for position, record in enumerate(records):
            for change in CHANGES:
                changed = dataclasses.replace(record, **change)
                if changed == record:
                    continue
                table = RecordTable.from_records(
                    [*records[:position], changed, *records[position + 1 :]]
                )
                fingerprint = result_fingerprint(_selection(table))
                assert fingerprint != base, (position, change)
                seen.add(fingerprint)
        assert len(seen) > 4 * len(CHANGES)
