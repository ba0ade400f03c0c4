"""Protocol v2 wire compatibility against a committed golden file.

``tests/data/wire_v2_golden.json`` is written by running this module as a
script (``PYTHONPATH=src python tests/test_wire_golden.py``), so it records
what the codecs put on the wire.  It replaced the v1 golden when protocol v2
moved a result's records from one JSON object per record to the record
table's columns (base64 little-endian bytes, see
:mod:`repro.frameql.records`); every records list of the v1 golden decodes
to the same records as its v2 counterpart, and everything else in the file
changed only in the envelope's version tag.  It holds two kinds of payload:

* ``constructed`` — objects :func:`constructed` builds by hand: one result per
  class, every event type, a full and a default hint set, both ledger
  classes.  Encoding them must reproduce the golden payload, and decoding the
  payload and encoding again must too.
* ``executions`` — results of real executions, one per query class, traced
  and untraced.  They carry wall-clock fields, so they are only checked the
  second way (decode, encode, compare).

Regenerating the file is a wire-protocol change: bump ``PROTOCOL_VERSION``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.api.hints import QueryHints, StopConditions
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
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
from repro.frameql.records import RecordTable
from repro.frameql.schema import FrameRecord
from repro.metrics.runtime import ExecutionLedger, RuntimeLedger
from repro.obs.profile import ExecutionProfile, OperatorProfile
from repro.obs.trace import SpanRecord
from repro.service.protocol import (
    PROTOCOL_VERSION,
    event_from_json,
    event_to_json,
    hints_from_json,
    hints_to_json,
    ledger_from_json,
    ledger_to_json,
    result_from_json,
    result_to_json,
)
from repro.video.geometry import BoundingBox
from repro.video.scenarios import generate_scenario

GOLDEN = Path(__file__).parent / "data" / "wire_v2_golden.json"

CODECS = {
    "results": (result_to_json, result_from_json),
    "events": (event_to_json, event_from_json),
    "hints": (hints_to_json, hints_from_json),
    "ledgers": (ledger_to_json, ledger_from_json),
}


def _execution_ledger() -> ExecutionLedger:
    ledger = ExecutionLedger(
        detector_calls=123,
        frames_decoded=120,
        detection_cache_hits=7,
        shared_cache_hits=8,
        index_hits=11,
        index_skips=12,
        batches_emitted=9,
        events_emitted=10,
        wall_seconds=1.234567890123,
    )
    ledger.charge_seconds("mask_rcnn", 41.0)
    ledger.charge_seconds("specialized_nn", 0.0123)
    return ledger


def _runtime_ledger() -> RuntimeLedger:
    ledger = RuntimeLedger()
    ledger.charge_seconds("yolov2", 0.25)
    return ledger


def _record(features: bool) -> FrameRecord:
    return FrameRecord(
        timestamp=0.1,
        frame_index=42,
        object_class="car",
        mask=BoundingBox(1.5, 2.25, 100.125, 1280),
        trackid=7 if features else None,
        features=np.linspace(0.0, 1.0, 5) / 3 if features else None,
        confidence=1 / 3,
        color=(12.5, 99.875, 3.0) if features else None,
        color_name="white" if features else None,
    )


def _profile() -> ExecutionProfile:
    return ExecutionProfile(
        kind="aggregate",
        plan_summary="sampling",
        trace_id="seed:11/0.1",
        operators=(
            OperatorProfile("Sample", "n=5", 0, 40, 13.3, 41, 0.002),
            OperatorProfile("Skipped", depth=1),
        ),
        spans=(
            SpanRecord("s0", None, "execute", 0.001, 0.25, {"parallelism": 1}),
            SpanRecord("s0.0", "s0", "Sample", 0.002, 0.125, {"kind": "operator"}),
        ),
    )


def _common(kind: str, **extra: Any) -> dict[str, Any]:
    return dict(
        kind=kind,
        method="m",
        ledger=_execution_ledger(),
        detection_calls=123,
        plan_description="plan",
        **extra,
    )


def constructed() -> dict[str, dict[str, Any]]:
    """Hand-built instances of every wire type, keyed by codec then name."""
    results: dict[str, QueryResult] = {
        "aggregate": AggregateResult(
            **_common("aggregate", stop_reason="ci_width", profile=_profile()),
            value=1 / 3,
            error_tolerance=0.05,
            confidence=0.95,
            samples_used=321,
            half_width=2**-45,
            correlation=None,
        ),
        "scrubbing": ScrubbingQueryResult(
            **_common("scrubbing", stop_reason="limit"),
            frames=[3, 99, 1024],
            timestamps=[0.1, 3.3, 34.13333333333333],
            limit=3,
            satisfied=True,
        ),
        "selection": SelectionResult(
            **_common("selection"),
            records=RecordTable.from_records([_record(True), _record(False)]),
            matched_frames=[42],
            frames_scanned=100,
            frames_after_filters=60,
        ),
        "exact": ExactResult(
            **_common("exact"), records=RecordTable.from_records([_record(True)]), value=17.0
        ),
        "exact_no_value": ExactResult(**_common("exact")),
        "base": QueryResult(kind="aggregate", method="m", ledger=_runtime_ledger()),
    }
    events = {
        "progress": Progress(phase="detection_scan", frames_scanned=10, total_frames=100),
        "progress_defaults": Progress(phase="verification"),
        "shard_progress": ShardProgress(
            shard=2, start_frame=0, end_frame=50, frames_computed=5, shard_frames=50
        ),
        "estimate_update": EstimateUpdate(
            estimate=2**-45, half_width=1e300, samples_used=77, confidence=0.95
        ),
        "scrubbing_hit": ScrubbingHit(
            frame_index=9, timestamp=-1.5e-17, hits_so_far=1, limit=10
        ),
        "selection_window": SelectionWindow(
            start_frame=3, end_frame=8, matched_frames=12, windows_so_far=2
        ),
        "completed": Completed(result=results["scrubbing"], stop_reason="limit"),
    }
    hints = {
        "full": QueryHints(
            scrubbing_indexed=True,
            selection_filter_classes=frozenset({"spatial", "label"}),
            stop_conditions=StopConditions(limit=5, ci_width=0.125),
            batch_size=64,
            parallelism=4,
            backend="processes",
            force_plan="exhaustive",
            use_index=False,
            trace=True,
        ),
        "default": QueryHints(),
    }
    ledgers = {"execution": _execution_ledger(), "runtime": _runtime_ledger()}
    return {"results": results, "events": events, "hints": hints, "ledgers": ledgers}


def executions() -> dict[str, dict[str, Any]]:
    """``result_to_json`` of one real execution per query class, both ways."""
    engine = BlazeIt(config=BlazeItConfig(seed=11))
    video = generate_scenario("rialto", "test", 60)
    engine.register_video("v", test_video=video)
    cls = video.object_class_names[0]
    queries = {
        "aggregate": f"SELECT FCOUNT(*) FROM v WHERE class = '{cls}'",
        "scrubbing": "SELECT timestamp FROM v GROUP BY timestamp "
        f"HAVING COUNT(class = '{cls}') >= 1 LIMIT 3 GAP 10",
        "selection": f"SELECT * FROM v WHERE class = '{cls}'",
        "exact": "SELECT * FROM v",
    }
    payloads = {}
    with engine.session() as session:
        for name, query in queries.items():
            for traced in (False, True):
                result = session.prepare(query).execute(trace=traced)
                assert (result.profile is not None) == traced
                key = f"{name}_traced" if traced else name
                payloads[key] = result_to_json(result)
    return payloads


def _golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def _cases() -> list[tuple[str, str]]:
    return [(codec, name) for codec, group in constructed().items() for name in group]


@pytest.mark.parametrize(("codec", "name"), _cases())
def test_constructed_objects_encode_to_the_golden_payload(codec, name):
    encode, decode = CODECS[codec]
    golden = _golden()["constructed"][codec][name]
    encoded = json.loads(json.dumps(encode(constructed()[codec][name])))
    assert encoded == golden
    assert json.loads(json.dumps(encode(decode(golden)))) == golden


def test_golden_covers_every_registered_wire_type():
    golden = _golden()
    assert golden["protocol_version"] == PROTOCOL_VERSION == 2
    assert {p["event"] for p in golden["constructed"]["events"].values()} == set(
        event_wire_types()
    )
    result_tags = {p["type"] for p in golden["constructed"]["results"].values()}
    assert result_tags == {"aggregate", "scrubbing", "selection", "exact", "base"}
    assert {p["type"] for p in golden["executions"].values()} == result_tags - {"base"}


def test_executed_results_survive_decode_then_encode():
    for name, payload in _golden()["executions"].items():
        restored = result_from_json(payload)
        assert (restored.profile is not None) == name.endswith("_traced"), name
        assert json.loads(json.dumps(result_to_json(restored))) == payload, name


class TestWireTagsAtDefinition:
    """Defining an event or result class registers its wire tag; a tag that
    is missing, inherited or already taken raises when the class statement
    runs."""

    def test_missing_tag(self) -> None:
        with pytest.raises(TypeError, match="must define its own wire_name"):

            class Untagged(ExecutionEvent):
                pass

        assert "Untagged" not in {cls.__name__ for cls in event_wire_types().values()}

    def test_duplicate_tag(self) -> None:
        with pytest.raises(TypeError, match="reuses wire_name 'progress'.*Progress"):

            class Shadow(ExecutionEvent):
                wire_name = "progress"

        assert event_wire_types()["progress"] is Progress

    def test_tag_inherited_from_a_parent(self) -> None:
        with pytest.raises(TypeError, match="inherited from ExactResult"):

            class Narrower(ExactResult):
                extra: int = 0

        assert QueryResult.wire_types["exact"] is ExactResult


if __name__ == "__main__":
    document = {
        "protocol_version": PROTOCOL_VERSION,
        "constructed": {
            codec: {name: CODECS[codec][0](obj) for name, obj in group.items()}
            for codec, group in constructed().items()
        },
        "executions": executions(),
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
