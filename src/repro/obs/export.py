"""Persisting a run's telemetry next to its results.

:func:`export_system_telemetry` writes whatever observability a
:class:`~repro.controller.memory_system.MemorySystem` collected —
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
    from repro.controller.memory_system import MemorySystem

PathLike = Union[str, Path]

#: file name patterns for one run's telemetry, keyed by artifact
TRACE_JSONL = "trace-{stem}.jsonl"
TRACE_CHROME = "trace-{stem}.chrome.json"
METRICS_JSON = "metrics-{stem}.json"


def run_counters(memory: "MemorySystem") -> Dict[str, float]:
    """The run's event counts, summed over channels, sorted by name.

    ``rfm.<provenance>`` and ``mitigation.rows`` cover every RFM the
    controllers' statistics recorded, all-bank and per-bank (RFMpb)
    alike.  ``policy.mitigations`` appears only when a mitigation
    policy is attached.
    """
    controllers = memory.controllers
    counts: Dict[str, int] = {
        "abo.alerts": sum(c.abo.alert_count for c in controllers),
        "dram.refab": sum(c.refresh.refresh_count for c in controllers),
        "dram.tref": sum(c.refresh.tref_count for c in controllers),
        "prac.counter_resets": sum(c.refresh.counter_resets for c in controllers),
        "mitigation.rows": sum(c.stats.mitigated_row_total for c in controllers),
    }
    for provenance in RfmProvenance:
        counts[f"rfm.{provenance.value}"] = sum(
            c.stats.rfm_count(provenance) for c in controllers
        )
    policies = [
        c.policy for c in controllers if isinstance(c.policy, MitigationPolicy)
    ]
    if policies:
        counts["policy.mitigations"] = sum(
            p.mitigations_performed for p in policies
        )
    return {name: float(counts[name]) for name in sorted(counts)}


def export_system_telemetry(
    memory: "MemorySystem",
    directory: PathLike,
    stem: str,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Path]:
    """Write the memory system's collected telemetry into ``directory``.

    Returns ``{"trace_jsonl": ..., "trace_chrome": ..., "metrics": ...}``
    containing only the artifacts that were actually enabled.
    """
    out_dir = Path(directory)
    written: Dict[str, Path] = {}
    recorder = memory.recorder
    if recorder is not None:
        written["trace_jsonl"] = Path(
            recorder.export_jsonl(out_dir / TRACE_JSONL.format(stem=stem), meta=meta)
        )
        written["trace_chrome"] = Path(
            recorder.export_chrome(
                out_dir / TRACE_CHROME.format(stem=stem), label=stem
            )
        )
    sampler = memory.sampler
    if sampler is not None:
        # Closing sample: captures the tail window (and guarantees at
        # least one sample on runs shorter than the interval).  Rates in
        # it are computed over a full interval and therefore understate
        # the partial window — acceptable for an advisory series.
        sampler.sample()
        extra: Dict[str, Any] = {
            "registry": {
                "counters": run_counters(memory),
                "gauges": {},
                "histograms": {},
            }
        }
        stats = memory.stats
        extra["latency_percentiles_ns"] = stats.latency_percentiles()
        if meta:
            extra["meta"] = dict(meta)
        written["metrics"] = Path(
            sampler.export(out_dir / METRICS_JSON.format(stem=stem), extra=extra)
        )
    return written
