"""The ``repro obs`` back-end: campaign summaries + trace export."""

from contextlib import closing
import json

import pytest

from repro.obs.heartbeat import HEARTBEAT_FILENAME, HeartbeatWriter
from repro.obs.report import campaign_report, export_trace
from repro.obs.trace import TraceEvent, export_trace_jsonl

pytestmark = pytest.mark.smoke


def _make_campaign_dir(tmp_path):
    (tmp_path / "campaign.json").write_text(json.dumps([
        {"label": "attack=perf", "status": "ok"},
        {"label": "attack=selftest", "status": "error", "trials_error": 1,
         "error": {"type": "RuntimeError", "message": "boom"}},
    ]))
    with closing(HeartbeatWriter(tmp_path / HEARTBEAT_FILENAME)) as writer:
        writer.emit("campaign.start", scenarios=2, trials=2)
        writer.emit("trial.finish", status="ok")
        writer.emit("campaign.finish", scenarios_ok=1)
    obs_dir = tmp_path / "obs"
    obs_dir.mkdir()
    export_trace_jsonl(
        [TraceEvent("ACT", 1.0, dur=15.0, bank=0, row=3),
         TraceEvent("RD", 16.0, dur=2.0, bank=0, row=3)],
        obs_dir / "trace-s0.jsonl",
    )
    (obs_dir / "metrics-s0.json").write_text(json.dumps({
        "samples": 4, "interval_ns": 10000.0,
        "latency_percentiles_ns": {"p50": 40.0, "p95": 90.0, "p99": 120.0},
    }))
    return tmp_path


def test_campaign_report_summarizes_everything(tmp_path):
    report = campaign_report(_make_campaign_dir(tmp_path))
    assert f"campaign: {tmp_path}" in report
    assert "scenarios: 2  (error=1  ok=1)" in report
    assert "1 failed (RuntimeError: boom)" in report
    assert "heartbeat: 3 records in latest attempt" in report
    assert "finished after" in report
    assert "trace-s0.jsonl: 2 events  ACT=1  RD=1" in report
    assert "metrics-s0.json: 4 samples @ 10000 ns" in report
    assert "p50=40.0ns" in report


def test_campaign_report_on_bare_directory(tmp_path):
    report = campaign_report(tmp_path)
    assert "no campaign.json index found" in report
    assert "heartbeat: none recorded" in report
    assert "telemetry: none" in report


def test_campaign_report_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a campaign directory"):
        campaign_report(tmp_path / "nope")


def test_export_trace_default_output_path(tmp_path):
    source = tmp_path / "trace-s1.jsonl"
    export_trace_jsonl([TraceEvent("ACT", 1.0, dur=15.0)], source)
    out = export_trace(source)
    assert out == tmp_path / "trace-s1.chrome.json"
    doc = json.loads(out.read_text())
    assert any(e.get("name") == "ACT" for e in doc["traceEvents"])


def test_export_trace_empty_input_raises(tmp_path):
    empty = tmp_path / "trace-empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="no trace records"):
        export_trace(empty)
