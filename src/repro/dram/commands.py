"""DRAM command vocabulary.

Commands are what the memory controller issues on the command bus.  The
reproduction models them at command granularity (one record per ACT /
PRE / RD / WR / REF / RFM), which is the granularity at which the
paper's timing channel exists.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class CommandKind(enum.Enum):
    """The DDR5 commands relevant to PRAC timing channels."""

    ACT = "ACT"          # activate a row (increments its PRAC counter)
    PRE = "PRE"          # precharge (close) the open row
    RD = "RD"            # column read
    WR = "WR"            # column write
    REF = "REF"          # all-bank refresh (blocks tRFC)
    RFM_AB = "RFMab"     # all-bank Refresh Management (blocks tRFMab)
    RFM_PB = "RFMpb"     # per-bank RFM (Section 7.2 extension)


class RfmProvenance(enum.Enum):
    """Why an RFM was issued — the observable the attacks care about.

    * ``ABO`` — Alert-Back-Off-triggered (activity dependent, leaky).
    * ``ACB`` — Activation-Based (BAT threshold, activity dependent).
    * ``TB`` — Timing-Based (TPRAC; activity independent).
    * ``RANDOM`` — injected by the obfuscation defense (Section 7.1).
    """

    ABO = "abo"
    ACB = "acb"
    TB = "tb"
    RANDOM = "random"


@dataclass
class Command:
    """A single command instance with issue bookkeeping."""

    kind: CommandKind
    bank_id: int = -1            # flat bank index; -1 for all-bank commands
    row: int = -1
    issue_time: float = 0.0
    provenance: Optional[RfmProvenance] = None
    meta: dict = field(default_factory=dict)

    @property
    def is_all_bank(self) -> bool:
        return self.kind in (CommandKind.REF, CommandKind.RFM_AB)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "all-banks" if self.is_all_bank else f"bank={self.bank_id}"
        tag = f" [{self.provenance.value}]" if self.provenance else ""
        return f"<{self.kind.value} {where} row={self.row} @ {self.issue_time:.1f}ns{tag}>"
