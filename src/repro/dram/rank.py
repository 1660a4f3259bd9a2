"""Channel/rank aggregation of banks.

The :class:`Channel` owns one channel's flat bank array, its shared
data bus and the channel-wide blocking window that REF and RFMab
commands impose — that blocking window *is* the paper's timing
channel.  The system's one
:class:`~repro.controller.controller.MemoryController` owns it.
"""

from __future__ import annotations

from typing import Iterator, List, Set

from repro.dram.bank import Bank
from repro.dram.config import DramConfig


class Channel:
    """One DDR5 channel: banks plus channel-global timing state."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        #: flat ids of banks with an open row (kept exact by Bank)
        self.open_banks: Set[int] = set()
        #: flat ids of banks activated since the last RFMab burst reset
        #: their ``activations_since_rfm`` (kept by Bank, cleared by the
        #: controller)
        self.activated_banks: Set[int] = set()
        self.banks: List[Bank] = [
            Bank(config, bank_id, self.open_banks, self.activated_banks)
            for bank_id in range(config.organization.banks_per_channel)
        ]
        self.bus_free_at: float = 0.0      # shared data bus occupancy
        self.blocked_until: float = 0.0    # REF / RFMab channel-wide blocking
        #: all-bank RFMs (RFMab) issued, of any provenance; per-bank
        #: RFMpb commands are counted only in ControllerStats
        self.rfm_count: int = 0

    def bank(self, flat_bank_id: int) -> Bank:
        """The bank at a flat channel-wide index."""
        return self.banks[flat_bank_id]

    def __iter__(self) -> Iterator[Bank]:
        return iter(self.banks)

    # ------------------------------------------------------------------
    # Channel-wide blocking (REF / RFMab)
    # ------------------------------------------------------------------
    def block(self, start: float, duration: float) -> float:
        """Block the whole channel for ``duration`` starting at ``start``.

        Every open row is closed (RFMab/REFab require all banks
        precharged), which touches only the banks in :attr:`open_banks`.
        The window itself is recorded once, in ``blocked_until``: no
        bank's ``ready_at`` is written, so every reader of
        ``Bank.ready_at`` must take the max with ``blocked_until`` to
        get the bank's effective ACT floor.  Returns the time the window
        ends.
        """
        end = start + duration
        if end > self.blocked_until:
            self.blocked_until = end
        if self.open_banks:
            banks = self.banks
            for bank_id in sorted(self.open_banks):
                banks[bank_id].precharge(start)
        if end > self.bus_free_at:
            self.bus_free_at = end
        return end

    def block_bank(self, flat_bank_id: int, start: float, duration: float) -> float:
        """Block a single bank (per-bank RFM extension, Section 7.2).

        Unlike :meth:`block` this leaves ``blocked_until`` alone, so the
        window is written into the bank's own ``ready_at``.
        """
        end = start + duration
        bank = self.banks[flat_bank_id]
        if bank.open_row is not None:
            bank.precharge(start)
        bank.ready_at = max(bank.ready_at, end)
        return end

    def reset_all_counters(self) -> None:
        """tREFW-aligned PRAC counter reset across all banks."""
        for bank in self.banks:
            bank.reset_all_counters()
