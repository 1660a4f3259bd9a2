"""ABO + Activation-Based RFM (ACB-RFM): the JEDEC Targeted-RFM flow.

The controller counts activations per bank (the Rolling Accumulated ACT
count) and issues a proactive RFMab whenever any bank's count reaches
the Bank Activation threshold (BAT).  With BAT chosen below N_BO /
attack-round length, ABO-RFMs never fire — but the proactive RFMs are
still a deterministic function of activity, so the channel merely moves
from per-row to per-bank granularity (Figure 2(b)).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.dram.commands import RfmProvenance
from repro.mitigations.base import MitigationPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController
    from repro.dram.bank import Bank


class AcbRfmPolicy(MitigationPolicy):
    """ABO plus BAT-triggered proactive RFMs (insecure baseline)."""

    name = "abo_acb"

    def __init__(self, bat: int) -> None:
        """``bat`` is the Bank Activation threshold (see
        :meth:`bat_for_threshold` for the one derived from N_BO)."""
        super().__init__()
        if bat <= 0:
            raise ValueError("BAT must be positive")
        self.bat = bat
        self.acb_rfms_requested = 0
        self._rfm_outstanding = False

    def on_attached(self, controller: "MemoryController") -> None:
        for bank in controller.channel:
            bank.on_activate(self._check_bat)

    def _check_bat(self, bank: "Bank", row: int, count: int) -> None:
        if self._rfm_outstanding:
            return
        if bank.activations_since_rfm >= self.bat:
            self._rfm_outstanding = True
            self.acb_rfms_requested += 1
            assert self.controller is not None
            self.controller.request_rfm(RfmProvenance.ACB)

    def mitigate_on_rfm(
        self, controller: "MemoryController", time: float, provenance: RfmProvenance
    ) -> Mapping[int, int]:
        self._rfm_outstanding = False
        return super().mitigate_on_rfm(controller, time, provenance)

    @staticmethod
    def bat_for_threshold(nbo: int) -> int:
        """Pick a BAT that avoids ABO-RFMs under worst-case patterns.

        The paper configures BAT per N_RH "to eliminate ABO-RFMs under
        the worst-case Feinting pattern"; a BAT of half of N_BO
        guarantees a proactive mitigation fires well before any row can
        amass N_BO activations within one accumulation window.  JEDEC's
        minimum BAT is 16.
        """
        return max(16, nbo // 2)
