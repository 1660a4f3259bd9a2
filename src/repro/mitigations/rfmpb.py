"""Per-Bank RFM (RFMpb) TPRAC variant — the Section 7.2 extension.

The JEDEC PRAC spec only defines all-bank RFMs for the ABO flow; the
paper sketches a future extension where TB-RFMs are issued per bank so
only one bank stalls (tRFMpb < tRFMab) instead of the whole channel.
This policy implements that sketch: the TB timer rotates through banks,
blocking one bank per firing, with the per-bank period chosen so every
bank is still mitigated once per TB-Window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.dram.commands import CommandKind, RfmProvenance
from repro.mitigations.base import MitigationPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController


class PerBankRfmPolicy(MitigationPolicy):
    """TB-RFMs issued as per-bank RFMpb commands, round-robin."""

    name = "rfmpb"

    def __init__(self, tb_window: float) -> None:
        super().__init__()
        if tb_window <= 0:
            raise ValueError("TB-Window must be positive")
        self.tb_window = float(tb_window)
        self.pb_rfms_issued = 0
        self._next_bank = 0

    def on_attached(self, controller: "MemoryController") -> None:
        self._period = self.tb_window / len(controller.channel.banks)
        self._arm(controller)

    def _arm(self, controller: "MemoryController") -> None:
        controller.engine.schedule_after(
            self._period, lambda: self._fire(controller), priority=-1,
            label="pb-rfm",
        )

    def _fire(self, controller: "MemoryController") -> None:
        bank_id = self._next_bank
        self._next_bank = (self._next_bank + 1) % len(controller.channel.banks)
        start = max(controller.engine.now, controller.channel.blocked_until)
        controller.channel.block_bank(bank_id, start, controller.config.timing.tRFMpb)
        if controller._trace is not None:
            controller._log(
                CommandKind.RFM_PB, bank_id, -1, start, RfmProvenance.TB
            )
        # block_bank mutates bank timing state outside the controller's
        # serve/RFM-burst paths: its ready-time agenda must go stale.
        controller._invalidate_ready_cache()
        victim = self.queues[bank_id].pop_victim()
        mitigated: Optional[Dict[int, int]] = None
        if victim is not None:
            controller.channel.bank(bank_id).mitigate(victim)
            mitigated = {bank_id: victim}
            self.mitigations_performed += 1
        controller.stats.record_rfm(start, RfmProvenance.TB, bank_id, mitigated)
        self.pb_rfms_issued += 1
        controller.channel.bank(bank_id).activations_since_rfm = 0
        self._arm(controller)
