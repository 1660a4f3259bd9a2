"""Refresh machinery: periodic REFab, tREFW counter resets, TREF slots.

DDR5 refreshes every ``tREFI`` (3.9 us), blocking the channel for
``tRFC`` (410 ns).  The paper additionally uses two refresh-adjacent
mechanisms:

* **Counter reset** — PRAC per-row activation counters may be reset at
  every refresh window (tREFW, 32 ms), as proposed by MOAT; TPRAC
  evaluates both with and without this policy (Figure 14).
* **Targeted Refresh (TREF)** — the DRAM may perform extra RowHammer
  mitigations in the slack of refresh operations.  TPRAC co-designs
  with TREF: if a TREF lands inside a TB-Window, the scheduled TB-RFM
  can be skipped (Section 4.3, Figures 12/13).
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.engine import Engine
from repro.dram.config import DramConfig
from repro.dram.rank import Channel


class RefreshScheduler:
    """Issues REFab every tREFI and manages TREF/counter-reset hooks."""

    def __init__(
        self,
        engine: Engine,
        channel: Channel,
        config: DramConfig,
        tref_per_trefi: float = 0.0,
    ) -> None:
        """``tref_per_trefi`` — Targeted Refreshes per tREFI.

        The paper sweeps 0 (off), 1/4, 1/3, 1/2 and 1.  A value of 0.25
        means one TREF every four refreshes.
        """
        if tref_per_trefi < 0 or tref_per_trefi > 1:
            raise ValueError("tref_per_trefi must be within [0, 1]")
        self.engine = engine
        self.channel = channel
        self.config = config
        self.tref_per_trefi = tref_per_trefi
        self.refresh_count = 0
        self.tref_count = 0
        self.counter_resets = 0
        # Hooks --------------------------------------------------------
        #: called with the refresh start time whenever a TREF slot fires
        self.on_tref: List[Callable[[float], None]] = []
        #: called at every tREFW boundary (counter reset policy decides)
        self.on_refw: List[Callable[[float], None]] = []
        #: called with the refresh start time at every REFab issue
        self.on_refresh: List[Callable[[float], None]] = []
        self._tref_accumulator = 0.0
        self._started = False
        # REF runs every tREFI whatever the traffic: its timings are
        # cached as plain floats (the config is frozen).
        self._tRFC = config.timing.tRFC
        self._tREFI = config.timing.tREFI

    def start(self) -> None:
        """Arm the periodic refresh; idempotent."""
        if self._started:
            return
        self._started = True
        self.engine.schedule_after(
            self.config.timing.tREFI, self._do_refresh, priority=-2, label="REF"
        )
        self.engine.schedule_after(
            self.config.timing.tREFW, self._do_refw, priority=-3, label="tREFW"
        )

    # ------------------------------------------------------------------
    def _do_refresh(self) -> None:
        engine = self.engine
        channel = self.channel
        now = engine.now
        # Refresh waits for in-flight transfers (banks must be idle);
        # this mirrors real controllers' refresh scheduling flexibility.
        start = now
        v = channel.blocked_until
        if v > start:
            start = v
        v = channel.bus_free_at
        if v > start:
            start = v
        channel.block(start, self._tRFC)
        self.refresh_count += 1
        for hook in self.on_refresh:
            hook(start)
        # TREF slots: accumulate fractional rate, fire when it reaches 1
        # (at rate 0 the accumulator never moves, so it is skipped).
        rate = self.tref_per_trefi
        if rate:
            self._tref_accumulator += rate
            if self._tref_accumulator >= 1.0 - 1e-12:
                self._tref_accumulator -= 1.0
                self.tref_count += 1
                for hook in self.on_tref:
                    hook(start)
        engine.schedule(now + self._tREFI, self._do_refresh, -2, "REF")

    def _do_refw(self) -> None:
        now = self.engine.now
        self.counter_resets += 1
        for hook in self.on_refw:
            hook(now)
        self.engine.schedule_after(
            self.config.timing.tREFW, self._do_refw, priority=-3, label="tREFW"
        )
