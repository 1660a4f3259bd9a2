"""Analytical models: Feinting worst case, TB-Window solver, metrics,
energy and storage overheads, obfuscation leakage analysis."""

from repro.analysis.feinting import (
    FeintingResult,
    acts_per_tb_window,
    attack_rounds,
    feinting_tmax,
    optimal_r1_with_reset,
    tmax_sweep,
)
from repro.analysis.tb_window import required_tb_window, tb_window_for_nrh
from repro.analysis.metrics import geometric_mean
from repro.analysis.energy import EnergyModel, EnergyBreakdown
from repro.analysis.storage import storage_overhead_bits

__all__ = [
    "EnergyBreakdown",
    "EnergyModel",
    "FeintingResult",
    "acts_per_tb_window",
    "attack_rounds",
    "feinting_tmax",
    "geometric_mean",
    "optimal_r1_with_reset",
    "required_tb_window",
    "storage_overhead_bits",
    "tb_window_for_nrh",
    "tmax_sweep",
]
