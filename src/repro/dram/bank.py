"""Per-bank DRAM state: row buffer, timing, and PRAC counters.

A :class:`Bank` owns the open-row state and the per-row activation
counters that PRAC adds to every row.  The counter is incremented on
each activation (the JEDEC spec performs the read-modify-write during
the precharge of the activated row; counting at ACT yields the same
per-row totals and is the convention used by the paper's Ramulator2
model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.dram.config import DramConfig


@dataclass
class BankStats:
    """Counters a bank accumulates over a simulation."""

    activations: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    mitigations: int = 0


class Bank:
    """One DRAM bank: open row, next-ready time, PRAC counters.

    The bank does not schedule anything itself; the memory controller
    asks it for state and tells it what happened.  ``ready_at`` is the
    earliest time the next ACT may be issued as far as this bank's own
    commands and per-bank RFMs go (tRC, RFMpb); it excludes channel-wide
    REF/RFMab windows, so readers take the max with the owning channel's
    ``blocked_until`` (see :meth:`repro.dram.rank.Channel.block`).

    ``open_banks`` and ``activated_banks`` are the owning channel's
    membership sets, which :meth:`activate` and :meth:`precharge` keep
    exact; a standalone bank gets private ones.
    """

    def __init__(
        self,
        config: DramConfig,
        bank_id: int,
        open_banks: Optional[Set[int]] = None,
        activated_banks: Optional[Set[int]] = None,
    ) -> None:
        self.config = config
        self.bank_id = bank_id
        self.open_row: Optional[int] = None
        self.ready_at: float = 0.0           # earliest next ACT (bank-local)
        self.precharge_done_at: float = 0.0  # when an in-flight PRE finishes
        self.stats = BankStats()
        # Sparse counter storage: rows never activated hold no entry.
        self.counters: Dict[int, int] = {}
        self.activations_since_rfm: int = 0  # for BAT / ACB-RFM
        # Observers notified on each activation: f(bank, row, count).
        self._act_observers: List[Callable[["Bank", int, int], None]] = []
        # Hot-path caches (identical values; avoids two attribute hops
        # per ACT/PRE through config.timing/organization).
        self._tRC = config.timing.tRC
        self._tRP = config.timing.tRP
        self._rows_per_bank = config.organization.rows_per_bank
        self._open_banks: Set[int] = set() if open_banks is None else open_banks
        self._activated_banks: Set[int] = (
            set() if activated_banks is None else activated_banks
        )

    # ------------------------------------------------------------------
    # Observation hooks (mitigation queues, alert logic subscribe here)
    # ------------------------------------------------------------------
    def on_activate(self, callback: Callable[["Bank", int, int], None]) -> None:
        """Register a callback fired after every ACT with the new count."""
        self._act_observers.append(callback)

    # ------------------------------------------------------------------
    # State transitions driven by the controller
    # ------------------------------------------------------------------
    def activate(self, row: int, time: float) -> int:
        """Open ``row`` at ``time``; returns the row's new PRAC count."""
        if not 0 <= row < self._rows_per_bank:
            raise ValueError(f"row {row} out of range for bank {self.bank_id}")
        self.open_row = row
        self._open_banks.add(self.bank_id)
        self._activated_banks.add(self.bank_id)
        self.ready_at = time + self._tRC
        self.stats.activations += 1
        self.activations_since_rfm += 1
        count = self.counters.get(row, 0) + 1
        self.counters[row] = count
        for observer in self._act_observers:
            observer(self, row, count)
        return count

    def precharge(self, time: float) -> None:
        """Close the open row (if any)."""
        self.open_row = None
        self._open_banks.discard(self.bank_id)
        self.stats.precharges += 1
        self.precharge_done_at = time + self._tRP

    # ------------------------------------------------------------------
    # PRAC counter management
    # ------------------------------------------------------------------
    def counter(self, row: int) -> int:
        """Current PRAC counter value for ``row``."""
        return self.counters.get(row, 0)

    def reset_counter(self, row: int) -> None:
        """Reset one row's counter (done when the row is mitigated)."""
        self.counters.pop(row, None)

    def reset_all_counters(self) -> None:
        """Reset every row counter (tREFW-aligned reset policy)."""
        self.counters.clear()

    def mitigate(self, row: int) -> None:
        """Apply RowHammer mitigation to ``row``.

        Models the refresh of the (up to) four neighbouring victim rows
        and the reset of the aggressor's counter.  Victim refreshes have
        no observable timing effect beyond the RFM blocking window that
        the controller already accounts for.
        """
        self.reset_counter(row)
        self.stats.mitigations += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Bank {self.bank_id} open_row={self.open_row} "
            f"acts={self.stats.activations}>"
        )
