"""The campaign heartbeat: an append-only JSONL lifecycle stream.

``run_campaign`` writes one line per lifecycle event into
``heartbeat.jsonl`` inside the campaign directory — campaign start,
finish and interrupt, scenario start / finish / cache-hit, trial
finish and fault (a raised exception, a missed deadline or a dead
worker), and corrupt result files moved aside on resume — so an
external watcher (``tail -f``, the ``--progress`` renderer, the
``repro obs report`` summary, or the future campaign-as-a-service
dashboard) can follow a long campaign without touching the atomic
result documents.

Unlike the scenario documents, the heartbeat is *append-only*: a
resumed campaign appends a fresh ``campaign.start`` (with
``resumed=true``) and its events after the interrupted run's tail, so
the file is the full history of every attempt.  Lines are flushed per
event; :func:`read_heartbeat` tolerates a truncated final line, so a
reader racing the writer sees a complete prefix.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

PathLike = Union[str, Path]

HEARTBEAT_FILENAME = "heartbeat.jsonl"

#: schema tag stamped on every record
HEARTBEAT_SCHEMA = "repro-heartbeat-v1"


class HeartbeatWriter:
    """Appends lifecycle events to a campaign's ``heartbeat.jsonl``."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a")
        self._seq = 0

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event line and flush it."""
        record: Dict[str, Any] = {"event": event, "seq": self._seq}
        record.update(fields)
        # Advisory wall-clock: heartbeat timing is for humans/dashboards
        # and never part of result identity.
        record["wall_time"] = round(time.time(), 3)
        self._seq += 1
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        return record

    def close(self) -> None:
        """Close the underlying append handle."""
        self._handle.close()


def read_heartbeat(path: PathLike) -> List[Dict[str, Any]]:
    """All parseable heartbeat records (tolerates a truncated tail)."""
    records: List[Dict[str, Any]] = []
    file_path = Path(path)
    if file_path.is_dir():
        file_path = file_path / HEARTBEAT_FILENAME
    if not file_path.exists():
        return records
    with open(file_path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # truncated tail from an in-flight writer
            if isinstance(record, dict):
                records.append(record)
    return records


def last_run(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The records of the most recent ``campaign.start`` attempt.

    A resumed/re-run campaign appends its events after the previous
    attempt's; summaries usually want only the latest attempt.
    """
    start = 0
    for index, record in enumerate(records):
        if record.get("event") == "campaign.start":
            start = index
    return records[start:]


def summarize(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Compact statistics over one attempt's heartbeat records."""
    counts: Dict[str, int] = {}
    faults: List[Dict[str, Any]] = []
    for record in records:
        event = str(record.get("event"))
        counts[event] = counts.get(event, 0) + 1
        if event == "trial.fault":
            faults.append(record)
    times = [r["wall_time"] for r in records if "wall_time" in r]
    wall_seconds: Optional[float] = None
    if len(times) >= 2:
        wall_seconds = round(max(times) - min(times), 3)
    return {
        "events": counts,
        "faults": faults,
        "wall_seconds": wall_seconds,
        "finished": counts.get("campaign.finish", 0) > 0,
        "interrupted": counts.get("campaign.interrupted", 0) > 0,
    }
