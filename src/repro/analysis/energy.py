"""DRAM energy model (Table 5 of the paper).

TPRAC's energy overhead has two components:

* **Mitigation energy** — each TB-RFM mitigates the most-activated row
  per bank: four victim refreshes plus one aggressor activation to
  reset the counter, i.e. five extra row activations per bank per RFM.
* **Non-mitigation energy** — TB-RFMs lengthen execution, so background
  power is burned for longer.

Per-operation energies are representative DDR5 values (pJ); the paper's
Table 5 reports relative overheads, which depend only on the ratios, so
the exact constants matter less than their proportions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController

from repro.dram.config import DramConfig, ddr5_8000b


@dataclass(frozen=True)
class EnergyParams:
    """Per-operation energies (pJ) and background power (mW/bank)."""

    act_pre_pj: float = 170.0      # one ACT+PRE pair
    rd_pj: float = 110.0           # column read incl. IO
    wr_pj: float = 115.0
    ref_per_bank_pj: float = 450.0  # one bank's share of a REFab
    background_mw_per_bank: float = 4.0
    mitigation_acts: int = 5       # per mitigated row: 4 victim refreshes
                                   # + 1 aggressor counter-reset write


@dataclass
class EnergyBreakdown:
    """Energy totals (pJ) split the way Table 5 reports them."""

    activation_pj: float = 0.0
    column_pj: float = 0.0
    refresh_pj: float = 0.0
    background_pj: float = 0.0
    mitigation_pj: float = 0.0     # RFM-driven extra activations

    @property
    def total_pj(self) -> float:
        return (
            self.activation_pj
            + self.column_pj
            + self.refresh_pj
            + self.background_pj
            + self.mitigation_pj
        )

    def overhead_vs(self, baseline: "EnergyBreakdown") -> "EnergyOverhead":
        """Relative overhead split into mitigation / non-mitigation."""
        if baseline.total_pj <= 0:
            raise ValueError("baseline energy must be positive")
        base = baseline.total_pj
        mitigation = (self.mitigation_pj - baseline.mitigation_pj) / base
        non_mitigation = (
            (self.total_pj - self.mitigation_pj)
            - (baseline.total_pj - baseline.mitigation_pj)
        ) / base
        return EnergyOverhead(
            mitigation_pct=mitigation * 100.0,
            non_mitigation_pct=non_mitigation * 100.0,
        )


@dataclass(frozen=True)
class EnergyOverhead:
    """Table 5 row: percentage overheads."""

    mitigation_pct: float
    non_mitigation_pct: float

    @property
    def total_pct(self) -> float:
        return self.mitigation_pct + self.non_mitigation_pct


class EnergyModel:
    """Computes an :class:`EnergyBreakdown` from simulation statistics."""

    def __init__(
        self,
        config: Optional[DramConfig] = None,
        params: Optional[EnergyParams] = None,
    ) -> None:
        self.config = config or ddr5_8000b()
        self.params = params or EnergyParams()

    def from_counts(
        self,
        activations: int,
        reads: int,
        writes: int,
        refreshes: int,
        mitigations: int,
        elapsed_ns: float,
        banks: Optional[int] = None,
    ) -> EnergyBreakdown:
        """Energy from raw event counts over ``elapsed_ns``.

        ``mitigations`` counts per-bank row mitigations actually
        performed (each costs :attr:`EnergyParams.mitigation_acts`
        extra activations); banks whose queue was empty at an RFM do
        no work and burn no mitigation energy.  ``banks`` scales the
        refresh and background terms; it defaults to the channel's banks
        in this model's organization.
        """
        p = self.params
        if banks is None:
            banks = self.config.organization.banks_per_channel
        return EnergyBreakdown(
            activation_pj=activations * p.act_pre_pj,
            column_pj=reads * p.rd_pj + writes * p.wr_pj,
            refresh_pj=refreshes * banks * p.ref_per_bank_pj,
            # 1 mW * 1 ns = 1e-3 W * 1e-9 s = 1e-12 J = exactly 1 pJ.
            background_pj=p.background_mw_per_bank * banks * elapsed_ns,
            mitigation_pj=mitigations * p.mitigation_acts * p.act_pre_pj,
        )

    def from_controller(self, controller: "MemoryController") -> EnergyBreakdown:
        """Energy from a finished :class:`MemoryController` run."""
        stats = controller.stats
        activations = sum(b.stats.activations for b in controller.channel)
        mitigations = stats.mitigated_row_total  # running counter, no rescan
        policy = controller.policy
        if policy is not None and hasattr(policy, "mitigations_performed"):
            mitigations = max(mitigations, policy.mitigations_performed)
        return self.from_counts(
            activations=activations,
            reads=stats.reads,
            writes=stats.writes,
            refreshes=controller.refresh.refresh_count,
            mitigations=mitigations,
            elapsed_ns=controller.engine.now,
            banks=controller.config.organization.banks_per_channel,
        )
