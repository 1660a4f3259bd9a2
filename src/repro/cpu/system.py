"""Multicore system wiring: cores + the memory system.

This is the reproduction's ChampSim stand-in.  A :class:`System`
builds N trace-driven cores sharing a :class:`MemorySystem` — one
memory controller per configured DDR5 channel, with requests routed by
channel-interleaved physical address — runs each core through its
trace once and reports per-core IPCs, from which the experiments
derive normalized performance.

With the default single-channel organization the memory system is a
zero-overhead alias for one controller and results are bit-for-bit
identical to the historical one-controller wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.controller.memory_system import MemorySystem
from repro.core.engine import Engine
from repro.cpu.core import TraceCore
from repro.cpu.trace import TraceRecord
from repro.dram.config import DramConfig, ddr5_8000b

#: Events one :meth:`System.run` may fire before the engine stops it.
MAX_EVENTS = 50_000_000


@dataclass
class ChannelResult:
    """Per-channel slice of one system run."""

    channel: int
    requests: int
    rfms: int
    row_hit_rate: float
    mean_latency_ns: float
    activations: int
    refreshes: int


@dataclass
class SystemResult:
    """Outcome of one system run (aggregated across channels)."""

    ipcs: List[float]
    elapsed_ns: float
    dram_requests: int
    rfm_total: int
    rfm_by_provenance: Dict[str, int]
    row_hit_rate: float
    mean_latency_ns: float
    activations: int = 0
    refreshes: int = 0
    reads: int = 0
    writes: int = 0
    per_channel: List[ChannelResult] = field(default_factory=list)

    @property
    def total_ipc(self) -> float:
        return sum(self.ipcs)


class System:
    """N cores + a per-channel memory controller fleet on a shared engine."""

    def __init__(
        self,
        traces: Sequence[List[TraceRecord]],
        config: Optional[DramConfig] = None,
        policy: Optional[object] = None,
        policy_factory: Optional[Callable[..., object]] = None,
        enable_abo: bool = True,
        tref_per_trefi: float = 0.0,
        system: Optional[SystemConfig] = None,
    ) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        self.engine = Engine()
        self.config = config or ddr5_8000b()
        self.memory = MemorySystem(
            self.engine,
            self.config,
            policy=policy,
            policy_factory=policy_factory,
            enable_abo=enable_abo,
            tref_per_trefi=tref_per_trefi,
            system=system,
        )
        # The memory system may have projected the declarative system
        # (channel count) onto the device config; adopt its view.
        self.config = self.memory.config
        self.cores: List[TraceCore] = []
        for core_id, trace in enumerate(traces):
            core = TraceCore(self.engine, self.memory, trace, core_id)
            core.on_finish = self._core_finished
            self.cores.append(core)
        self._unfinished = len(self.cores)

    def _core_finished(self, core: TraceCore) -> None:
        """Per-core finish hook: stop the engine once the last core is
        done — an O(1) counter instead of scanning every core per event."""
        self._unfinished -= 1
        if self._unfinished == 0:
            self.engine.request_stop()

    # ------------------------------------------------------------------
    def run(self) -> SystemResult:
        """Run all cores to completion; gather results.

        The refresh/TB-RFM timers re-arm forever, so the run terminates
        on core completion rather than queue exhaustion: the per-core
        finish hooks request the engine stop.  :data:`MAX_EVENTS` caps
        a run that never finishes.
        """
        for core in self.cores:
            core.start()
        if self._unfinished > 0:
            self.engine.run(max_events=MAX_EVENTS)
        return self._gather_result()

    # ------------------------------------------------------------------
    def _gather_result(self) -> SystemResult:
        """Aggregate per-channel controller state into one result.

        Single-channel sums degenerate to the lone controller's values,
        keeping historical outputs bit-identical.
        """
        memory = self.memory
        merged = memory.stats  # live object at 1 channel, merged snapshot at N
        provenance_counts: Dict[str, int] = {}
        for record in merged.rfm_records:
            key = record.provenance.value
            provenance_counts[key] = provenance_counts.get(key, 0) + 1
        per_channel: List[ChannelResult] = []
        for controller in memory.controllers:
            stats = controller.stats
            per_channel.append(
                ChannelResult(
                    channel=controller.channel_id,
                    requests=stats.requests_served,
                    rfms=len(stats.rfm_records),
                    row_hit_rate=stats.row_hit_rate,
                    mean_latency_ns=stats.mean_latency,
                    activations=sum(
                        b.stats.activations for b in controller.channel
                    ),
                    refreshes=controller.refresh.refresh_count,
                )
            )
        return SystemResult(
            ipcs=[core.ipc for core in self.cores],
            elapsed_ns=self.engine.now,
            dram_requests=merged.requests_served,
            rfm_total=len(merged.rfm_records),
            rfm_by_provenance=provenance_counts,
            row_hit_rate=merged.row_hit_rate,
            mean_latency_ns=merged.mean_latency,
            activations=sum(c.activations for c in per_channel),
            refreshes=memory.refresh_count,
            reads=merged.reads,
            writes=merged.writes,
            per_channel=per_channel,
        )
