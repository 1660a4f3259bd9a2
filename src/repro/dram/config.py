"""DRAM configuration: organization, timing and PRAC parameters.

The defaults follow Table 1 (JEDEC PRAC parameters) and Table 3 (system
configuration) of the paper: a 32 Gb DDR5-8000B chip with 4 banks x 8
bank groups x 4 ranks on one channel, 128K rows of 8 KB per bank, and
PRAC-adjusted tRP/tWR.  All times are in nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict


KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class DramTiming:
    """DDR5 timing parameters (ns), PRAC-adjusted per the JEDEC spec.

    The paper's Table 3 values: tRCD=tCL=tRAS=16, tRP=36 (PRAC
    read-modify-write of the activation counter happens during
    precharge), tRTP=5, tWR=10, tRC=52, tRFC=410, tREFI=3900,
    tABOACT=180, tRFMab=350.
    """

    tCK: float = 0.25           # DDR5-8000: 4 GHz IO clock
    tRCD: float = 16.0          # ACT -> RD/WR
    tCL: float = 16.0           # RD -> data
    tRAS: float = 16.0          # ACT -> PRE (minimum row-open time)
    tRP: float = 36.0           # PRE -> ACT (PRAC-adjusted)
    tRTP: float = 5.0           # RD -> PRE
    tWR: float = 10.0           # write recovery (PRAC-adjusted)
    tRC: float = 52.0           # ACT -> ACT, same bank (tRAS + tRP)
    tBL: float = 2.0            # burst of 16 at 8 Gbps: 16/8000MT * 1000
    tCCD: float = 2.0           # column-to-column, same bank group
    tRFC: float = 410.0         # refresh cycle time (all-bank REFab)
    tREFI: float = 3900.0       # refresh interval
    tREFW: float = 32_000_000.0  # refresh window (32 ms)
    tABOACT: float = 180.0      # max time from Alert to RFM (<= 3 ACTs)
    tRFMab: float = 350.0       # all-bank RFM blocking time
    tRFMpb: float = 130.0       # per-bank RFM blocking time (7.2 extension)

    def validate(self) -> None:
        """Check internal consistency of the timing set."""
        if abs((self.tRAS + self.tRP) - self.tRC) > 1e-9:
            raise ValueError(
                f"tRC ({self.tRC}) must equal tRAS + tRP "
                f"({self.tRAS} + {self.tRP})"
            )
        for name in (
            "tCK", "tRCD", "tCL", "tRAS", "tRP", "tRTP", "tWR", "tRC",
            "tBL", "tCCD", "tRFC", "tREFI", "tREFW", "tABOACT", "tRFMab",
            "tRFMpb",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.tREFI >= self.tREFW:
            raise ValueError("tREFI must be smaller than tREFW")


@dataclass(frozen=True)
class DramOrganization:
    """Physical organization of the memory system: the paper's one
    DDR5 channel, with its own memory controller, data bus, refresh
    machinery and PRAC/ABO state."""

    ranks: int = 4
    bank_groups: int = 8
    banks_per_group: int = 4
    rows_per_bank: int = 128 * 1024
    row_size_bytes: int = 8 * KB
    cacheline_bytes: int = 64

    @property
    def banks_per_rank(self) -> int:
        return self.bank_groups * self.banks_per_group

    @property
    def banks_per_channel(self) -> int:
        """Banks owned by the channel's controller (rank-major flat index)."""
        return self.ranks * self.banks_per_rank

    @property
    def columns_per_row(self) -> int:
        """Number of cache lines in one DRAM row."""
        return self.row_size_bytes // self.cacheline_bytes

    def validate(self) -> None:
        """Raise ValueError on inconsistent parameters; returns self where chained."""
        for name in (
            "ranks", "bank_groups", "banks_per_group",
            "rows_per_bank", "row_size_bytes", "cacheline_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.row_size_bytes % self.cacheline_bytes != 0:
            raise ValueError("row size must be a multiple of the cache line")


@dataclass(frozen=True)
class PracConfig:
    """PRAC / ABO protocol parameters (Table 1 of the paper).

    ``nbo`` is the Back-Off threshold at which the DRAM asserts Alert.
    ``prac_level`` (N_mit) is the number of RFMab commands issued per
    ABO: 1, 2 or 4.  ``abo_act`` is the number of extra activations the
    controller may issue between Alert and the RFM.  ``abo_delay``
    equals the PRAC level per the JEDEC spec.
    """

    nbo: int = 1024
    prac_level: int = 1
    abo_act: int = 3
    reset_on_refresh: bool = True  # reset per-row counters every tREFW

    @property
    def abo_delay(self) -> int:
        """Minimum ACTs after an RFM before the next Alert (== N_mit)."""
        return self.prac_level

    def validate(self) -> None:
        """Raise ValueError on inconsistent parameters; returns self where chained."""
        if self.prac_level not in (1, 2, 4):
            raise ValueError("PRAC level (N_mit) must be 1, 2 or 4")
        if self.nbo <= 0:
            raise ValueError("N_BO must be positive")
        if self.abo_act < 0:
            raise ValueError("ABO_ACT must be non-negative")


@dataclass(frozen=True)
class DramConfig:
    """Complete device configuration: organization + timing + PRAC."""

    organization: DramOrganization = field(default_factory=DramOrganization)
    timing: DramTiming = field(default_factory=DramTiming)
    prac: PracConfig = field(default_factory=PracConfig)

    def validate(self) -> "DramConfig":
        """Raise ValueError on inconsistent parameters; returns self where chained."""
        self.organization.validate()
        self.timing.validate()
        self.prac.validate()
        return self

    def with_prac(self, **overrides: Any) -> "DramConfig":
        """Return a copy with PRAC parameters overridden."""
        return replace(self, prac=replace(self.prac, **overrides))


def ddr5_8000b() -> DramConfig:
    """The paper's evaluated device: 32 Gb DDR5-8000B (Table 3)."""
    return DramConfig().validate()


def ddr5_4800() -> DramConfig:
    """A slower-bin DDR5 part for sensitivity studies.

    Same PRAC behaviour, longer core timings (tRCD/tCL 16 ns are
    JEDEC-floor absolute times, so they stay; the burst takes longer at
    4800 MT/s and the refresh interval is unchanged).
    """
    timing = DramTiming(
        tCK=1.0 / 2.4,
        tBL=16 / 4.8,
        tCCD=16 / 4.8,
    )
    return DramConfig(timing=timing).validate()


def small_test_config(rows_per_bank: int = 256, nbo: int = 64) -> DramConfig:
    """A small configuration for fast unit tests."""
    org = DramOrganization(
        ranks=1, bank_groups=2, banks_per_group=2, rows_per_bank=rows_per_bank
    )
    cfg = DramConfig(organization=org, prac=PracConfig(nbo=nbo))
    return cfg.validate()


#: Named presets, so experiment configs can refer to devices by string.
PRESETS: Dict[str, DramConfig] = {
    "ddr5_8000b": ddr5_8000b(),
    "ddr5_4800": ddr5_4800(),
}
