"""Figure 3: memory-access latency seen by an attacker during an ABO.

A victim hammers a row pair to the Back-Off threshold while an attacker
probes a different bank.  With 1/2/4 RFMs per ABO the attacker's
latency spikes to roughly tRFMab / 2*tRFMab / 4*tRFMab above baseline
(the paper reports 545/976/1669 ns mean spike latencies); without a
concurrent ABO the latency trace stays flat apart from refresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.attacks.probes import (
    SPIKE_THRESHOLD_NS,
    LatencyProbe,
    ProbeResult,
    RowHammerSender,
)
from repro.controller.controller import MemoryController
from repro.core.engine import Engine
from repro.dram.config import DramConfig, ddr5_8000b
from repro.mitigations import make_policy
from repro.experiments.registry import ArtifactSpec


@dataclass
class LatencyTimeline:
    """One trace of (time, latency) pairs plus derived spike stats."""

    label: str
    times: List[float]
    latencies: List[float]
    abo_count: int

    def mean_spike_latency(self, config: Optional[DramConfig] = None) -> float:
        """Mean latency of RFM-attributable spikes (paper's 545/976/1669)."""
        config = config or ddr5_8000b()
        probe = ProbeResult(self.times, self.latencies)
        spikes = [lat for _, lat in probe.rfm_spikes(config.timing)]
        if not spikes:
            return 0.0
        return sum(spikes) / len(spikes)

    @property
    def baseline_latency(self) -> float:
        normal = [lat for lat in self.latencies if lat <= SPIKE_THRESHOLD_NS]
        return sum(normal) / len(normal) if normal else 0.0


@dataclass
class Fig3Result:
    timelines: Dict[str, LatencyTimeline]

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        lines = ["config          ABOs  baseline(ns)  spike-mean(ns)"]
        for label, timeline in self.timelines.items():
            lines.append(
                f"{label:15s} {timeline.abo_count:4d}  "
                f"{timeline.baseline_latency:12.0f}  "
                f"{timeline.mean_spike_latency():14.0f}"
            )
        return "\n".join(lines)


def run(
    nbo: int = 256,
    hammer_rounds: int = 4,
    prac_levels: tuple = (1, 2, 4),
    duration_ns: float = 400_000.0,
) -> Fig3Result:
    """Reproduce Figure 3's four panels (no-ABO plus 1/2/4 RFMs/ABO)."""
    timelines: Dict[str, LatencyTimeline] = {}
    for level in prac_levels:
        timelines[f"{level} RFM/ABO"] = _one_timeline(
            nbo=nbo,
            prac_level=level,
            hammer_rounds=hammer_rounds,
            duration_ns=duration_ns,
            victim_active=True,
        )
    timelines["No ABO"] = _one_timeline(
        nbo=nbo,
        prac_level=1,
        hammer_rounds=0,
        duration_ns=duration_ns,
        victim_active=False,
    )
    return Fig3Result(timelines=timelines)


def _one_timeline(
    nbo: int,
    prac_level: int,
    hammer_rounds: int,
    duration_ns: float,
    victim_active: bool,
) -> LatencyTimeline:
    config = ddr5_8000b().with_prac(nbo=nbo, prac_level=prac_level, abo_act=0)
    engine = Engine()
    controller = MemoryController(engine, config, policy=make_policy("abo_only"))
    probe = LatencyProbe(controller, bank=4)
    probe.start()
    if victim_active:
        sender = RowHammerSender(controller, bank=0)
        spacing = duration_ns / max(1, hammer_rounds)
        for round_index in range(hammer_rounds):
            row = 2 * round_index
            engine.schedule(
                round_index * spacing + 1000.0,
                lambda r=row: sender.hammer(r, target_acts=nbo, decoy_row=r + 1),
            )
    engine.run(until=duration_ns)
    probe.stop()
    return LatencyTimeline(
        label=f"{prac_level} RFM/ABO" if victim_active else "No ABO",
        times=probe.result.times,
        latencies=probe.result.latencies,
        abo_count=controller.abo.alert_count,
    )


ARTIFACT = ArtifactSpec(
    name="fig3",
    artifact="Figure 3",
    title="ABO-induced latency timelines (1/2/4 RFMs per ABO)",
    module="repro.experiments.fig3_latency",
    quick=dict(nbo=256, hammer_rounds=2, duration_ns=200_000.0),
)
