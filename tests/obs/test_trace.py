"""Trace records: golden JSONL round-trip + Chrome trace_event export."""

import json

import pytest

from repro.dram.config import small_test_config
from repro.obs.trace import (
    ALERT,
    ALERT_DONE,
    CHANNEL_TRACK,
    MITIGATION_TRACK,
    PRAC_COUNTER,
    PRAC_RESET,
    TRACE_SCHEMA,
    TREF_SLOT,
    TraceEvent,
    TraceRecorder,
    chrome_trace,
    export_trace_jsonl,
    load_trace_jsonl,
)

pytestmark = pytest.mark.smoke


def _sample_events():
    return [
        TraceEvent("ACT", 100.0, dur=15.0, channel=0, bank=2, row=7),
        TraceEvent(PRAC_COUNTER, 100.0, bank=2, row=7, detail={"count": 3}),
        TraceEvent(ALERT, 150.0, channel=0, bank=2, row=7),
        TraceEvent("RFMab", 160.0, dur=350.0, detail={"provenance": "abo"}),
        TraceEvent(ALERT_DONE, 510.0),
        TraceEvent(PRAC_RESET, 600.0),
        TraceEvent(TREF_SLOT, 700.0, channel=1),
    ]


# ----------------------------------------------------------------------
# JSONL round-trip (the golden on-disk format)
# ----------------------------------------------------------------------
def test_jsonl_golden_serialization(tmp_path):
    # The exact line format is a compatibility contract: header record
    # with sorted keys, then one compact object per event with
    # default-valued fields omitted.
    path = tmp_path / "trace.jsonl"
    export_trace_jsonl(_sample_events()[:2], path, meta={"scenario": "demo"})
    lines = path.read_text().splitlines()
    assert lines[0] == '{"events": 2, "scenario": "demo", "schema": "repro-trace-v1"}'
    assert lines[1] == (
        '{"kind": "ACT", "ts": 100.0, "dur": 15.0, "bank": 2, "row": 7}'
    )
    assert lines[2] == (
        '{"kind": "prac.counter", "ts": 100.0, "bank": 2, "row": 7, '
        '"detail": {"count": 3}}'
    )


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = _sample_events()
    export_trace_jsonl(events, path, meta={"seed": 3})
    header, loaded = load_trace_jsonl(path)
    assert header["schema"] == TRACE_SCHEMA
    assert header["events"] == len(events)
    assert header["seed"] == 3
    assert len(loaded) == len(events)
    for original, parsed in zip(events, loaded):
        for field in TraceEvent.__slots__:
            assert getattr(parsed, field) == getattr(original, field)


def test_jsonl_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "trace.jsonl"
    export_trace_jsonl(_sample_events(), path)
    text = path.read_text()
    path.write_text(text[: text.rindex('{"kind"') + 10])  # cut mid-record
    header, loaded = load_trace_jsonl(path)
    assert header["schema"] == TRACE_SCHEMA
    assert len(loaded) == len(_sample_events()) - 1


def test_event_to_dict_omits_defaults():
    assert TraceEvent("PRE", 5.0).to_dict() == {"kind": "PRE", "ts": 5.0}


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
def test_recorder_durations_follow_device_timing():
    config = small_test_config()
    recorder = TraceRecorder(config)
    from repro.dram.commands import Command, CommandKind

    command = Command(CommandKind.ACT, bank_id=1, row=4, issue_time=50.0)
    recorder.observe_command(command)
    (event,) = recorder.events
    assert event.kind == "ACT"
    assert event.dur == config.timing.tRCD
    assert (event.bank, event.row, event.ts) == (1, 4, 50.0)


# ----------------------------------------------------------------------
# Chrome trace_event conversion
# ----------------------------------------------------------------------
def test_chrome_trace_layout():
    doc = chrome_trace(_sample_events(), label="t")
    assert doc["otherData"]["schema"] == TRACE_SCHEMA
    events = doc["traceEvents"]
    # process/thread naming metadata for every seen track
    names = {
        (e["pid"], e.get("tid")): e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names[(0, 2)] == "bank 2"
    assert names[(0, CHANNEL_TRACK)] == "channel"
    assert names[(0, MITIGATION_TRACK)] == "mitigation"
    assert (1, MITIGATION_TRACK) in names  # tref.slot on channel 1
    # the ACT command is a complete span carrying its row
    act = next(e for e in events if e["name"] == "ACT")
    assert act["ph"] == "X" and act["dur"] == 15.0 and act["args"]["row"] == 7
    # alert + mitigated fuse into one span covering the window
    alert = next(e for e in events if e["name"] == ALERT)
    assert alert["ph"] == "X"
    assert alert["ts"] == 150.0 and alert["dur"] == 360.0
    assert alert["args"] == {"bank": 2, "row": 7}
    # PRAC counter updates become a counter series
    counter = next(e for e in events if e["ph"] == "C")
    assert counter["name"] == "prac.bank2" and counter["args"]["count"] == 3
    # resets and TREF slots are instant marks
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert instants == {PRAC_RESET, TREF_SLOT}
    json.dumps(doc)  # must be JSON-serializable as-is


def test_chrome_trace_open_alert_renders_as_instant():
    doc = chrome_trace([TraceEvent(ALERT, 10.0, bank=1, row=2)])
    (mark,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert mark["name"] == ALERT and mark["ts"] == 10.0
