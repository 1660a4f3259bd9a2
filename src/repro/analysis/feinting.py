"""Worst-case security analysis of TPRAC under the Feinting attack.

Implements Section 4.2.2 of the paper (Equations 1-5).  The Feinting
(a.k.a. Wave) attack is the proven-worst-case pattern against RFM-based
mitigations: the attacker uniformly activates a pool of R1 decoy rows
plus a target row, sacrificing decoys to each mitigation so that in the
final round every remaining activation lands on the target.

Given a TB-Window, the analysis yields TMAX — the maximum activations
an adversary can accumulate on one row.  TPRAC is secure (no ABO-RFM
ever fires, hence no timing channel) iff TMAX < N_BO (Equation 1).

Two counter-reset regimes are modelled (Figure 7):

* **with reset** — per-row counters reset every tREFW; the attack is
  confined to one refresh window, so the optimal initial pool R1 is
  MAXACT_tREFW / ACT_TB-Window (Equation 5; the number of TB-RFMs that
  fit in tREFW).
* **without reset** — counters persist until mitigated; R1 is swept up
  to rows-per-bank (128K for the 32 Gb device) for the maximizing value
  (TACT is monotone in R1, so the sweep lands on 128K).

Calibration: the activations available per TB-Window subtract the time
the channel is blocked by refresh (the window's share of tRFC) and by
the TB-RFM itself (tRFMab).  With this accounting the model reproduces
the paper's Figure 7 exactly: TMAX = 105/572/2138 (with reset) and
118/736/3220 (without) at 0.25/1/4 tREFI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dram.config import DramConfig, ddr5_8000b


def usable_window_time(config: DramConfig, tb_window: float) -> float:
    """Time within one TB-Window available for attacker activations.

    Subtracts the window's pro-rata share of refresh blocking and the
    TB-RFM issued at the end of the window.
    """
    timing = config.timing
    refresh_share = (tb_window / timing.tREFI) * timing.tRFC
    usable = tb_window - refresh_share - timing.tRFMab
    if usable <= 0:
        raise ValueError(
            f"TB-Window {tb_window} ns leaves no activation time after "
            f"refresh and RFM blocking"
        )
    return usable


def acts_per_tb_window(config: DramConfig, tb_window: float) -> int:
    """Equation (2): max activations to a bank within one TB-Window."""
    return int(usable_window_time(config, tb_window) // config.timing.tRC)


def max_acts_per_trefw(config: DramConfig, tb_window: float) -> int:
    """MAXACT_tREFW: activation budget within one refresh window.

    Uses the same usable-time accounting as :func:`acts_per_tb_window`
    (~550K for the paper's device at 1-tREFI windows).
    """
    timing = config.timing
    windows = timing.tREFW / tb_window
    usable = usable_window_time(config, tb_window)
    return int(windows * usable / timing.tRC)


def attack_rounds(r1: int, acts_per_window: int) -> int:
    """Equations (3)/(4): Feinting rounds until only the target remains.

    Round ``N`` activates every surviving pool row once; one decoy is
    mitigated per ``acts_per_window`` activations (one TB-RFM per
    window).  The cumulative-sum recurrence is evaluated exactly,
    including the floor.
    """
    if r1 <= 0:
        raise ValueError("R1 must be positive")
    if acts_per_window <= 0:
        raise ValueError("acts_per_window must be positive")
    cumulative = 0
    remaining = r1
    rounds = 0
    while remaining > 1:
        rounds += 1
        cumulative += remaining
        remaining = r1 - cumulative // acts_per_window
        if remaining <= 0:
            break
    return rounds + 1  # final round: all activations on the target


def feinting_target_acts(r1: int, acts_per_window: int) -> int:
    """Equation (4): activations to the target row for a given R1.

    One activation per non-final round plus the full final window.
    """
    rounds = attack_rounds(r1, acts_per_window)
    return (rounds - 1) + acts_per_window


def optimal_r1_with_reset(config: DramConfig, tb_window: float) -> int:
    """Equation (5): optimal pool size under tREFW counter reset."""
    acts = acts_per_tb_window(config, tb_window)
    return max(1, max_acts_per_trefw(config, tb_window) // acts)


@dataclass(frozen=True)
class FeintingResult:
    """Outcome of the worst-case analysis for one TB-Window."""

    tb_window: float         # ns
    tb_window_trefi: float   # in units of tREFI
    with_reset: bool
    optimal_r1: int
    attack_rounds: int
    tmax: int                # max activations to the target row


def feinting_tmax(
    config: DramConfig,
    tb_window: float,
    with_reset: bool = True,
    r1_candidates: Optional[Sequence[int]] = None,
) -> FeintingResult:
    """Worst-case TMAX for a TB-Window under either reset regime."""
    acts = acts_per_tb_window(config, tb_window)
    if with_reset:
        best_r1 = optimal_r1_with_reset(config, tb_window)
        best_tmax = feinting_target_acts(best_r1, acts)
    else:
        if r1_candidates is None:
            r1_candidates = _default_r1_grid(config.organization.rows_per_bank)
        best_r1, best_tmax = 1, 0
        for r1 in r1_candidates:
            tmax = feinting_target_acts(r1, acts)
            if tmax > best_tmax:
                best_r1, best_tmax = r1, tmax
    return FeintingResult(
        tb_window=tb_window,
        tb_window_trefi=tb_window / config.timing.tREFI,
        with_reset=with_reset,
        optimal_r1=best_r1,
        attack_rounds=attack_rounds(best_r1, acts),
        tmax=best_tmax,
    )


def _default_r1_grid(max_rows: int) -> List[int]:
    """Log-spaced R1 candidates up to ``max_rows``.

    TACT is monotone non-decreasing in R1 (more decoys -> more rounds),
    so a coarse grid that includes ``max_rows`` suffices; the dense
    sweep of the paper lands on the same optimum.
    """
    grid = set()
    value = 1
    while value < max_rows:
        grid.add(value)
        value = max(value + 1, int(value * 1.3))
    grid.add(max_rows)
    return sorted(grid)


def tmax_sweep(
    config: Optional[DramConfig] = None,
    tb_windows_trefi: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 2.0, 4.0),
) -> Dict[str, List[FeintingResult]]:
    """Figure 7: TMAX across TB-Windows, with and without counter reset."""
    config = config or ddr5_8000b()
    trefi = config.timing.tREFI
    out: Dict[str, List[FeintingResult]] = {"with_reset": [], "without_reset": []}
    for multiple in tb_windows_trefi:
        window = multiple * trefi
        out["with_reset"].append(feinting_tmax(config, window, with_reset=True))
        out["without_reset"].append(feinting_tmax(config, window, with_reset=False))
    return out
