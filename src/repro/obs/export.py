"""Persisting a run's telemetry next to its results.

:func:`export_system_telemetry` writes whatever observability a
:class:`~repro.controller.controller.MemoryController` collected —
the structured trace (JSONL + Chrome ``trace_event``) and/or the
metrics document (the run's counts, sampler time series, latency
percentiles) — into a directory using the atomic writers, and returns
the written paths.  The campaign perf trials call this with a
``<scenario-id>-s<seed>`` stem so every trial's telemetry is
addressable from the campaign's ``obs/`` subdirectory.

The counts come from :func:`run_counters`, which reads fields the
simulator keeps on every run.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.dram.commands import RfmProvenance
from repro.mitigations.base import MitigationPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController

PathLike = Union[str, Path]

#: file name patterns for one run's telemetry, keyed by artifact
TRACE_JSONL = "trace-{stem}.jsonl"
TRACE_CHROME = "trace-{stem}.chrome.json"
METRICS_JSON = "metrics-{stem}.json"


def run_counters(controller: "MemoryController") -> Dict[str, float]:
    """The run's event counts, sorted by name.

    ``rfm.<provenance>`` and ``mitigation.rows`` cover every RFM the
    controller's statistics recorded, all-bank and per-bank (RFMpb)
    alike.  ``policy.mitigations`` appears only when a mitigation
    policy is attached.
    """
    stats = controller.stats
    refresh = controller.refresh
    counts: Dict[str, int] = {
        "abo.alerts": controller.abo.alert_count,
        "dram.refab": refresh.refresh_count,
        "dram.tref": refresh.tref_count,
        "prac.counter_resets": refresh.counter_resets,
        "mitigation.rows": stats.mitigated_row_total,
    }
    for provenance in RfmProvenance:
        counts[f"rfm.{provenance.value}"] = stats.rfm_count(provenance)
    policy = controller.policy
    if isinstance(policy, MitigationPolicy):
        counts["policy.mitigations"] = policy.mitigations_performed
    return {name: float(counts[name]) for name in sorted(counts)}


def export_system_telemetry(
    controller: "MemoryController",
    directory: PathLike,
    stem: str,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Path]:
    """Write the controller's collected telemetry into ``directory``.

    Returns ``{"trace_jsonl": ..., "trace_chrome": ..., "metrics": ...}``
    containing only the artifacts that were actually enabled.
    """
    out_dir = Path(directory)
    written: Dict[str, Path] = {}
    recorder = controller.recorder
    if recorder is not None:
        written["trace_jsonl"] = Path(
            recorder.export_jsonl(out_dir / TRACE_JSONL.format(stem=stem), meta=meta)
        )
        written["trace_chrome"] = Path(
            recorder.export_chrome(
                out_dir / TRACE_CHROME.format(stem=stem), label=stem
            )
        )
    sampler = controller.sampler
    if sampler is not None:
        # Closing sample: captures the tail window (and guarantees at
        # least one sample on runs shorter than the interval).  Rates in
        # it are computed over a full interval and therefore understate
        # the partial window — acceptable for an advisory series.
        sampler.sample()
        extra: Dict[str, Any] = {
            "registry": {
                "counters": run_counters(controller),
                "gauges": {},
                "histograms": {},
            }
        }
        extra["latency_percentiles_ns"] = controller.stats.latency_percentiles()
        if meta:
            extra["meta"] = dict(meta)
        written["metrics"] = Path(
            sampler.export(out_dir / METRICS_JSON.format(stem=stem), extra=extra)
        )
    return written
