"""Memory trace records and helpers.

A trace is a sequence of :class:`TraceRecord`; each record says "the
core executes ``gap_insts`` non-memory instructions, then performs one
memory access at ``phys_addr``".  This is the same shape as the
Ramulator2 trace format the paper's artifact uses, and is produced both
by the synthetic workload generators and by the AES victim.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: ``gap_insts`` compute instructions, then a load/store."""

    gap_insts: int
    phys_addr: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.gap_insts < 0:
            raise ValueError("gap_insts must be non-negative")
        if self.phys_addr < 0:
            raise ValueError("phys_addr must be non-negative")
