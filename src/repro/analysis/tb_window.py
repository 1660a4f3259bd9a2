"""TB-Window configuration: the largest safe RFM interval per N_RH.

TPRAC must pick the longest TB-Window (fewest RFMs, least overhead)
such that the Feinting worst case cannot push any row to the Back-Off
threshold: TMAX(TB-Window) < N_BO (Equation 1).  TMAX is monotone
increasing in the window, so a binary search over the window length
yields the optimum.

The paper alerts at the RowHammer threshold: N_BO = N_RH.  PRAC
mitigation refreshes the victims of the alerted row, so keeping every
counter below N_BO = N_RH guarantees no bit flips; TPRAC additionally
guarantees the counter never *reaches* N_BO.  :func:`tb_window_for_nrh`
solves at that operating point and reproduces the paper's windows,
e.g. ~1.6 tREFI at N_RH = 1024 with counter reset (Section 6.2).
:func:`repro.mitigations.policy_factory` solves the window a simulated
TPRAC or RFMpb policy runs with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.feinting import feinting_tmax
from repro.dram.config import DramConfig, ddr5_8000b


@dataclass(frozen=True)
class TbWindowChoice:
    """A solved TB-Window for one RowHammer threshold."""

    nrh: int
    nbo: int
    with_reset: bool
    tb_window: float          # ns
    tb_window_trefi: float    # in units of tREFI
    tmax: int                 # worst-case target activations at this window


def required_tb_window(
    config: DramConfig,
    nbo: int,
    with_reset: bool = True,
    precision: float = 1e-3,
) -> float:
    """Largest TB-Window (ns) with TMAX < ``nbo``.

    Binary search over windows in (lo, hi) tREFI; raises if even the
    smallest window cannot satisfy the bound.
    """
    trefi = config.timing.tREFI
    lo_trefi = (config.timing.tRFMab + config.timing.tRC) / trefi * 1.5
    hi_trefi = 16.0
    if feinting_tmax(config, lo_trefi * trefi, with_reset).tmax >= nbo:
        raise ValueError(
            f"no TB-Window can keep TMAX below N_BO={nbo}; "
            f"even {lo_trefi:.3f} tREFI is unsafe"
        )
    lo, hi = lo_trefi, hi_trefi
    while feinting_tmax(config, hi * trefi, with_reset).tmax < nbo:
        hi *= 2
        if hi > 4096:
            return hi * trefi  # any realistic window is safe
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if feinting_tmax(config, mid * trefi, with_reset).tmax < nbo:
            lo = mid
        else:
            hi = mid
    return lo * trefi


def tb_window_for_nrh(
    nrh: int,
    config: Optional[DramConfig] = None,
    with_reset: bool = True,
) -> TbWindowChoice:
    """Solve the TB-Window for a RowHammer threshold at N_BO = N_RH
    (Figures 10-14)."""
    config = config or ddr5_8000b()
    window = required_tb_window(config, nrh, with_reset=with_reset)
    result = feinting_tmax(config, window, with_reset=with_reset)
    return TbWindowChoice(
        nrh=nrh,
        nbo=nrh,
        with_reset=with_reset,
        tb_window=window,
        tb_window_trefi=window / config.timing.tREFI,
        tmax=result.tmax,
    )
