"""Heartbeat stream: append-only lifecycle records + resume semantics."""

from contextlib import closing
import json

import pytest

from repro.obs.heartbeat import (
    HEARTBEAT_FILENAME,
    HeartbeatWriter,
    last_run,
    read_heartbeat,
    summarize,
)

pytestmark = pytest.mark.smoke


def test_emit_and_read_round_trip(tmp_path):
    path = tmp_path / HEARTBEAT_FILENAME
    with closing(HeartbeatWriter(path)) as writer:
        writer.emit("campaign.start", scenarios=2, trials=3)
        writer.emit("trial.finish", scenario_id="abc", seed=0)
    records = read_heartbeat(path)
    assert [r["event"] for r in records] == ["campaign.start", "trial.finish"]
    assert [r["seq"] for r in records] == [0, 1]
    assert records[0]["scenarios"] == 2
    assert all("wall_time" in r for r in records)


def test_read_accepts_the_campaign_directory(tmp_path):
    with closing(HeartbeatWriter(tmp_path / HEARTBEAT_FILENAME)) as writer:
        writer.emit("campaign.start")
    assert len(read_heartbeat(tmp_path)) == 1


def test_read_missing_file_is_empty(tmp_path):
    assert read_heartbeat(tmp_path) == []


def test_read_tolerates_truncated_tail(tmp_path):
    path = tmp_path / HEARTBEAT_FILENAME
    with closing(HeartbeatWriter(path)) as writer:
        writer.emit("campaign.start")
        writer.emit("trial.finish")
    with open(path, "a") as handle:
        handle.write('{"event": "trial.fin')  # writer died mid-line
    records = read_heartbeat(path)
    assert [r["event"] for r in records] == ["campaign.start", "trial.finish"]


def test_resume_appends_a_second_attempt(tmp_path):
    # An interrupted campaign leaves no campaign.finish; the resumed
    # attempt appends after the old tail, and last_run() isolates it.
    path = tmp_path / HEARTBEAT_FILENAME
    with closing(HeartbeatWriter(path)) as writer:
        writer.emit("campaign.start", resumed=False)
        writer.emit("trial.finish", seed=0)
    with closing(HeartbeatWriter(path)) as writer:  # fresh writer = resumed process
        writer.emit("campaign.start", resumed=True)
        writer.emit("scenario.cached", trials=3)
        writer.emit("campaign.finish", scenarios_ok=1)
    records = read_heartbeat(path)
    assert len(records) == 5
    latest = last_run(records)
    assert [r["event"] for r in latest] == [
        "campaign.start", "scenario.cached", "campaign.finish",
    ]
    assert latest[0]["resumed"] is True
    assert summarize(latest)["finished"]
    assert not summarize(records[:2])["finished"]


def test_summarize_counts_events_and_faults(tmp_path):
    path = tmp_path / HEARTBEAT_FILENAME
    with closing(HeartbeatWriter(path)) as writer:
        writer.emit("campaign.start")
        writer.emit("trial.finish", status="error")
        writer.emit("trial.fault", scenario_id="abc", seed=1,
                    error_type="RuntimeError", error="boom")
    summary = summarize(read_heartbeat(path))
    assert summary["events"]["trial.fault"] == 1
    assert summary["faults"][0]["error_type"] == "RuntimeError"
    assert summary["finished"] is False
    assert summary["wall_seconds"] is not None


def test_records_are_plain_json_lines(tmp_path):
    path = tmp_path / HEARTBEAT_FILENAME
    with closing(HeartbeatWriter(path)) as writer:
        writer.emit("campaign.start")
    (line,) = path.read_text().splitlines()
    assert json.loads(line)["event"] == "campaign.start"
