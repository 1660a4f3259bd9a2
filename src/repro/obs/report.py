"""The ``repro obs`` CLI back-end: campaign summaries + trace export.

``repro obs report <campaign-dir>`` renders one human-readable
summary of everything a campaign directory contains — the
``campaign.json`` index, the heartbeat stream's latest attempt
(events, faults, wall time), and any per-trial telemetry under
``obs/`` (trace event tallies, metric series lengths, latency
percentiles).  ``repro obs export-trace <trace.jsonl>`` converts a
JSONL trace into the Chrome ``trace_event`` JSON Perfetto loads.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs import heartbeat as hb
from repro.obs.trace import chrome_trace, load_trace_jsonl

PathLike = Union[str, Path]

OBS_SUBDIR = "obs"


# ----------------------------------------------------------------------
# obs report
# ----------------------------------------------------------------------
def _load_index(campaign_dir: Path) -> List[Dict[str, Any]]:
    path = campaign_dir / "campaign.json"
    if not path.exists():
        return []
    try:
        rows = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    return rows if isinstance(rows, list) else []


def _metric_means(campaign_dir: Path, row: Dict[str, Any]) -> Optional[str]:
    """``name=mean`` summary of one scenario's aggregated metrics."""
    file_name = row.get("file")
    if not file_name:
        return None
    try:
        doc = json.loads((campaign_dir / str(file_name)).read_text())
    except (OSError, ValueError):
        return None
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return None
    parts = []
    for name in sorted(metrics):
        stats = metrics[name]
        if isinstance(stats, dict) and "mean" in stats:
            parts.append(f"{name}={stats['mean']:.4g}")
    return "  ".join(parts) if parts else None


def _scan_obs_dir(obs_dir: Path) -> List[str]:
    """Per-telemetry-file summary lines (traces + metrics series)."""
    lines: List[str] = []
    if not obs_dir.is_dir():
        return lines
    for path in sorted(obs_dir.glob("trace-*.jsonl")):
        header, events = load_trace_jsonl(path)
        counts: Dict[str, int] = {}
        for event in events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        top = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        lines.append(f"  {path.name}: {len(events)} events  {top}")
        chrome = path.with_name(path.name[: -len(".jsonl")] + ".chrome.json")
        if chrome.exists():
            lines.append(f"  {chrome.name}: Chrome trace (load in Perfetto)")
    for path in sorted(obs_dir.glob("metrics-*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        samples = doc.get("samples", 0)
        interval = doc.get("interval_ns", 0)
        detail = f"{samples} samples @ {interval:g} ns"
        pcts = doc.get("latency_percentiles_ns")
        if pcts:
            detail += "  " + "  ".join(
                f"{name}={value:.1f}ns" for name, value in sorted(pcts.items())
            )
        lines.append(f"  {path.name}: {detail}")
    return lines


def campaign_report(campaign_dir: PathLike) -> str:
    """One human-readable summary of a campaign directory."""
    root = Path(campaign_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"not a campaign directory: {root}")
    lines: List[str] = [f"campaign: {root}"]

    rows = _load_index(root)
    if rows:
        by_status: Dict[str, int] = {}
        for row in rows:
            status = str(row.get("status", "?"))
            by_status[status] = by_status.get(status, 0) + 1
        tally = "  ".join(f"{k}={v}" for k, v in sorted(by_status.items()))
        lines.append(f"scenarios: {len(rows)}  ({tally})")
        width = max(len(str(row.get("label", ""))) for row in rows)
        for row in rows:
            line = f"  {row.get('label', ''):<{width}}  {row.get('status', '?')}"
            if row.get("trials_error"):
                error = row.get("error", {})
                line += (
                    f"  {row['trials_error']} failed"
                    f" ({error.get('type', '?')}: {error.get('message', '')})"
                )
            lines.append(line)
            means = _metric_means(root, row)
            if means:
                lines.append(f"      {means}")
    else:
        lines.append("scenarios: no campaign.json index found")

    records = hb.read_heartbeat(root)
    if records:
        latest = hb.last_run(records)
        summary = hb.summarize(latest)
        events = "  ".join(
            f"{name}={count}" for name, count in sorted(summary["events"].items())
        )
        lines.append(f"heartbeat: {len(latest)} records in latest attempt  ({events})")
        if summary["wall_seconds"] is not None:
            state = "finished" if summary["finished"] else "interrupted"
            lines.append(
                f"heartbeat: {state} after {summary['wall_seconds']:.1f}s wall"
            )
        attempts = sum(
            1 for r in records if r.get("event") == "campaign.start"
        )
        if attempts > 1:
            lines.append(f"heartbeat: {attempts} attempts recorded (resumed)")
        for fault in summary["faults"]:
            lines.append(
                f"  fault: scenario={fault.get('scenario_id', '?')}"
                f" seed={fault.get('seed', '?')}"
                f" {fault.get('error_type', '?')}: {fault.get('error', '')}"
            )
    else:
        lines.append("heartbeat: none recorded")

    telemetry = _scan_obs_dir(root / OBS_SUBDIR)
    if telemetry:
        lines.append(f"telemetry ({OBS_SUBDIR}/):")
        lines.extend(telemetry)
    else:
        lines.append(
            "telemetry: none (run with --grid trace=true metrics=true to collect)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# obs export-trace
# ----------------------------------------------------------------------
def export_trace(trace_path: PathLike, out: Optional[PathLike] = None) -> Path:
    """Convert a JSONL trace to Chrome ``trace_event`` JSON.

    Default output: ``<trace>.chrome.json`` next to the input.
    """
    from repro.analysis.storage import atomic_write_json

    source = Path(trace_path)
    header, events = load_trace_jsonl(source)
    if not header and not events:
        raise ValueError(f"no trace records in {source}")
    if out is None:
        stem = source.name
        if stem.endswith(".jsonl"):
            stem = stem[: -len(".jsonl")]
        out = source.with_name(stem + ".chrome.json")
    label = str(header.get("label", source.stem))
    return atomic_write_json(out, chrome_trace(events, label=label))
