"""Structured trace recording and export (JSONL + Chrome trace_event).

A :class:`TraceRecorder` is attached by ``SystemConfig(trace=True)``:
the memory controller forwards every served command into it (through
the same single ``_trace`` guard the sanitizer uses, so the
``trace=False`` path is untouched) and registers lifecycle hooks for
ABO alerts, tREFW counter resets, TREF slots and PRAC counter
updates.  Events are typed :class:`TraceEvent` records — kind,
sim-time, duration, channel/bank/row coordinates, optional detail —
held in memory and exported post-run:

* :meth:`TraceRecorder.export_jsonl` — one JSON object per line with a
  ``repro-trace-v1`` header record (the golden round-trip format;
  :func:`load_trace_jsonl` is the inverse).
* :meth:`TraceRecorder.export_chrome` — Chrome ``trace_event`` JSON
  loadable in Perfetto / ``chrome://tracing``: one process per
  channel, one thread track per bank, plus per-channel "channel"
  (REF/RFM windows) and "mitigation" (ABO lifecycle, counter resets,
  TREF slots) tracks, and a ``C``-phase counter series per bank for
  PRAC counts.

Durations are the command's channel/bank occupancy from the device
timing (ACT=tRCD, PRE=tRP, RD/WR=tBL, REF=tRFC, RFMab=tRFMab), so the
rendered spans line up with the blocking windows the paper's timing
channel observes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.dram.commands import Command, CommandKind
from repro.dram.config import DramConfig

#: JSONL schema tag written as the header record of every trace file.
TRACE_SCHEMA = "repro-trace-v1"

#: Lifecycle event kinds (command kinds use CommandKind values verbatim).
ALERT = "abo.alert"              # Alert pin asserted
ALERT_DONE = "abo.mitigated"     # controller finished the RFM burst
PRAC_COUNTER = "prac.counter"    # a row's PRAC counter after an ACT
PRAC_RESET = "prac.reset"        # tREFW boundary counter reset
TREF_SLOT = "tref.slot"          # a Targeted-Refresh slot fired

#: Synthetic Chrome thread ids for the non-bank tracks.
CHANNEL_TRACK = 1000
MITIGATION_TRACK = 1001


class TraceEvent:
    """One typed trace record.

    ``ts``/``dur`` are simulation nanoseconds; ``channel``/``bank``/
    ``row`` are -1 when not applicable (all-bank commands, lifecycle
    events).  ``detail`` carries kind-specific extras (RFM provenance,
    PRAC counter values).
    """

    __slots__ = ("kind", "ts", "dur", "channel", "bank", "row", "detail")

    def __init__(
        self,
        kind: str,
        ts: float,
        dur: float = 0.0,
        channel: int = 0,
        bank: int = -1,
        row: int = -1,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.ts = ts
        self.dur = dur
        self.channel = channel
        self.bank = bank
        self.row = row
        self.detail = detail

    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON form; default-valued fields are omitted."""
        record: Dict[str, Any] = {"kind": self.kind, "ts": self.ts}
        if self.dur:
            record["dur"] = self.dur
        if self.channel:
            record["channel"] = self.channel
        if self.bank != -1:
            record["bank"] = self.bank
        if self.row != -1:
            record["row"] = self.row
        if self.detail is not None:
            record["detail"] = self.detail
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        return cls(
            kind=record["kind"],
            ts=record["ts"],
            dur=record.get("dur", 0.0),
            channel=record.get("channel", 0),
            bank=record.get("bank", -1),
            row=record.get("row", -1),
            detail=record.get("detail"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"ch{self.channel}"
        if self.bank != -1:
            where += f"/b{self.bank}"
        return f"<TraceEvent {self.kind} @ {self.ts:.1f}ns {where}>"


class TraceRecorder:
    """Collects the :class:`TraceEvent` records of one controller's
    channel; every event it records has ``channel`` 0."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.events: List[TraceEvent] = []
        timing = config.timing
        #: command kind -> channel/bank occupancy used as the span length
        self._durations: Dict[CommandKind, float] = {
            CommandKind.ACT: timing.tRCD,
            CommandKind.PRE: timing.tRP,
            CommandKind.RD: timing.tBL,
            CommandKind.WR: timing.tBL,
            CommandKind.REF: timing.tRFC,
            CommandKind.RFM_AB: timing.tRFMab,
            CommandKind.RFM_PB: timing.tRFMpb,
        }

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        ts: float,
        dur: float = 0.0,
        bank: int = -1,
        row: int = -1,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one event built from scalars (lifecycle call sites)."""
        self.events.append(TraceEvent(kind, ts, dur, 0, bank, row, detail))

    def observe_command(self, command: Command) -> None:
        """Record one served command (controller ``_log`` forwarding)."""
        detail = None
        if command.provenance is not None:
            detail = {"provenance": command.provenance.value}
        self.events.append(
            TraceEvent(
                command.kind.value,
                command.issue_time,
                self._durations[command.kind],
                0,
                command.bank_id,
                command.row,
                detail,
            )
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(self, path: Any, meta: Optional[Dict[str, Any]] = None) -> Any:
        """Write the recorded stream as JSONL (see :func:`export_trace_jsonl`)."""
        return export_trace_jsonl(self.events, path, meta=meta)

    def export_chrome(self, path: Any, label: str = "repro") -> Any:
        """Write the recorded stream as Chrome ``trace_event`` JSON."""
        from repro.analysis.storage import atomic_write_json

        return atomic_write_json(path, chrome_trace(self.events, label=label))


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
def export_trace_jsonl(
    events: List[TraceEvent], path: Any, meta: Optional[Dict[str, Any]] = None
) -> Any:
    """Write a header record + one event per line, atomically."""
    from repro.analysis.storage import atomic_write_text

    header: Dict[str, Any] = {"schema": TRACE_SCHEMA, "events": len(events)}
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(event.to_dict()) for event in events)
    return atomic_write_text(path, "\n".join(lines) + "\n")


def load_trace_jsonl(path: Any) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Inverse of :func:`export_trace_jsonl`: ``(header, events)``.

    Tolerates a truncated final line (a reader racing a writer sees a
    complete prefix, never an exception).
    """
    header: Dict[str, Any] = {}
    events: List[TraceEvent] = []
    with open(path) as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # truncated tail
            if index == 0 and record.get("schema"):
                header = record
                continue
            events.append(TraceEvent.from_dict(record))
    return header, events


# ----------------------------------------------------------------------
# Chrome trace_event conversion
# ----------------------------------------------------------------------
def _track_of(event: TraceEvent) -> int:
    """Chrome thread id for one event (bank, channel or mitigation)."""
    if event.kind in (ALERT, ALERT_DONE, PRAC_RESET, TREF_SLOT):
        return MITIGATION_TRACK
    if event.bank != -1:
        return event.bank
    return CHANNEL_TRACK


def chrome_trace(events: List[TraceEvent], label: str = "repro") -> Dict[str, Any]:
    """Render events as a Chrome ``trace_event`` document.

    Layout: one process per channel (``pid`` = channel id), one thread
    per bank plus the synthetic "channel" and "mitigation" tracks.
    Commands become complete (``ph="X"``) spans; PRAC counter updates
    become ``ph="C"`` counter samples; counter resets and TREF slots
    become instant (``ph="i"``) marks.  ABO alert/mitigated pairs fuse
    into one span covering the alert-to-mitigation window.

    Timestamps: the sim's nanoseconds map onto the format's
    microsecond field, so viewers display 1 "µs" per simulated ns.
    """
    trace_events: List[Dict[str, Any]] = []
    seen_tracks: Dict[Tuple[int, int], None] = {}
    open_alerts: Dict[int, TraceEvent] = {}  # channel -> alert event

    for event in events:
        pid = event.channel
        tid = _track_of(event)
        seen_tracks.setdefault((pid, tid), None)
        if event.kind == ALERT:
            open_alerts[pid] = event
            continue
        if event.kind == ALERT_DONE:
            alert = open_alerts.pop(pid, None)
            start = event.ts if alert is None else alert.ts
            args: Dict[str, Any] = {}
            if alert is not None:
                args = {"bank": alert.bank, "row": alert.row}
            trace_events.append(
                {
                    "name": ALERT,
                    "ph": "X",
                    "ts": start,
                    "dur": event.ts - start,
                    "pid": pid,
                    "tid": tid,
                    "cat": "mitigation",
                    "args": args,
                }
            )
            continue
        if event.kind == PRAC_COUNTER:
            count = (event.detail or {}).get("count", 0)
            trace_events.append(
                {
                    "name": f"prac.bank{event.bank}",
                    "ph": "C",
                    "ts": event.ts,
                    "pid": pid,
                    "args": {"count": count},
                }
            )
            continue
        if event.kind in (PRAC_RESET, TREF_SLOT):
            trace_events.append(
                {
                    "name": event.kind,
                    "ph": "i",
                    "ts": event.ts,
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "cat": "mitigation",
                }
            )
            continue
        args = {}
        if event.row != -1:
            args["row"] = event.row
        if event.detail:
            args.update(event.detail)
        trace_events.append(
            {
                "name": event.kind,
                "ph": "X",
                "ts": event.ts,
                "dur": event.dur,
                "pid": pid,
                "tid": tid,
                "cat": "command",
                "args": args,
            }
        )

    # A still-open alert at end of trace renders as an instant mark.
    for pid, alert in sorted(open_alerts.items()):
        trace_events.append(
            {
                "name": ALERT,
                "ph": "i",
                "ts": alert.ts,
                "pid": pid,
                "tid": MITIGATION_TRACK,
                "s": "t",
                "cat": "mitigation",
                "args": {"bank": alert.bank, "row": alert.row},
            }
        )

    metadata: List[Dict[str, Any]] = []
    for pid in sorted({pid for pid, _ in seen_tracks}):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": f"{label} channel {pid}"},
            }
        )
    for pid, tid in sorted(seen_tracks):
        if tid == CHANNEL_TRACK:
            thread_name = "channel"
        elif tid == MITIGATION_TRACK:
            thread_name = "mitigation"
        else:
            thread_name = f"bank {tid}"
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread_name},
            }
        )

    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ns",
        "otherData": {"generator": "repro.obs", "schema": TRACE_SCHEMA},
    }
