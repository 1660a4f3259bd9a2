"""Multicore system wiring: cores + the memory controller.

This is the reproduction's ChampSim stand-in.  A :class:`System`
builds N trace-driven cores sharing the one
:class:`~repro.controller.controller.MemoryController` of the paper's
single DDR5 channel, runs each core through its trace once and reports
per-core IPCs, from which the experiments derive normalized
performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.controller.controller import MemoryController
from repro.core.engine import Engine
from repro.cpu.core import TraceCore
from repro.cpu.trace import TraceRecord
from repro.dram.config import DramConfig, ddr5_8000b

#: Events one :meth:`System.run` may fire before the engine stops it.
MAX_EVENTS = 50_000_000


@dataclass
class SystemResult:
    """Outcome of one system run."""

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

    @property
    def total_ipc(self) -> float:
        return sum(self.ipcs)


class System:
    """N cores + one memory controller on a shared engine."""

    def __init__(
        self,
        traces: Sequence[List[TraceRecord]],
        config: Optional[DramConfig] = None,
        policy: Optional[object] = None,
        enable_abo: bool = True,
        tref_per_trefi: float = 0.0,
        system: Optional[SystemConfig] = None,
    ) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        self.engine = Engine()
        self.config = config or ddr5_8000b()
        self.controller = MemoryController(
            self.engine,
            self.config,
            policy=policy,
            enable_abo=enable_abo,
            tref_per_trefi=tref_per_trefi,
            system=system,
        )
        self.cores: List[TraceCore] = []
        for core_id, trace in enumerate(traces):
            core = TraceCore(self.engine, self.controller, trace, core_id)
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
        """Read the run's results off the cores and the controller."""
        controller = self.controller
        stats = controller.stats
        rfms = stats.rfm_records
        return SystemResult(
            ipcs=[core.ipc for core in self.cores],
            elapsed_ns=self.engine.now,
            dram_requests=stats.requests_served,
            rfm_total=len(rfms),
            rfm_by_provenance={
                provenance.value: count
                for provenance, count in rfms.counts().items()
            },
            row_hit_rate=stats.row_hit_rate,
            mean_latency_ns=stats.mean_latency,
            activations=sum(b.stats.activations for b in controller.channel),
            refreshes=controller.refresh.refresh_count,
            reads=stats.reads,
            writes=stats.writes,
        )
