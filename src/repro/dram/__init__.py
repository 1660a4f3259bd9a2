"""DDR5 DRAM substrate with PRAC timing adjustments.

This package models the memory device side of the reproduction:

* :mod:`repro.dram.config` — timing/organization parameters (Table 3 of
  the paper; DDR5-8000B 32 Gb with PRAC-adjusted tRP/tWR).
* :mod:`repro.dram.commands` — DRAM command vocabulary (ACT/PRE/RD/WR/
  REF/RFMab/RFMpb).
* :mod:`repro.dram.address` — the Minimalist Open Page
  physical-address ⇄ DRAM-coordinate mapping.
* :mod:`repro.dram.bank` — per-bank state: row buffer, timing wheel,
  PRAC activation counters.
* :mod:`repro.dram.rank` — rank/channel aggregation.
* :mod:`repro.dram.refresh` — the tREFI/tREFW refresh machinery and
  Targeted-Refresh (TREF) slots.
"""

from repro.dram.address import DramAddress, MopMapping
from repro.dram.bank import Bank
from repro.dram.commands import Command, CommandKind
from repro.dram.config import DramConfig, DramOrganization, DramTiming
from repro.dram.rank import Channel
from repro.dram.refresh import RefreshScheduler

__all__ = [
    "Bank",
    "Channel",
    "Command",
    "CommandKind",
    "DramAddress",
    "DramConfig",
    "DramOrganization",
    "DramTiming",
    "MopMapping",
    "RefreshScheduler",
]
