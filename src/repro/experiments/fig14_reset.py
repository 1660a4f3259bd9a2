"""Figure 14: activation-counter reset policy vs N_RH.

With counters reset every tREFW, the Feinting attacker's optimal pool
is smaller, so TMAX is lower and the TB-Window can be longer — fewer
TB-RFMs and better performance, noticeably so at ultra-low N_RH where
TB-RFMs dominate.  (Direction check: reset lowers TMAX, hence for the
same N_BO it allows a *longer* window than no-reset.)  The paper
measures under 1% difference between the two policies at N_RH >= 1024.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tb_window import tb_window_for_nrh
from repro.config import SystemConfig
from repro.experiments.common import (
    DesignPoint,
    PerfRow,
    default_workloads,
    geomean_normalized,
    run_perf_matrix,
)
from repro.experiments.registry import ArtifactSpec


@dataclass
class Fig14Result:
    #: (nrh, with_reset) -> rows
    by_point: Dict[Tuple[int, bool], List[PerfRow]]
    #: (nrh, with_reset) -> TB-Window (tREFI multiples)
    windows: Dict[Tuple[int, bool], float]

    def geomean(self, nrh: int, with_reset: bool) -> float:
        """Geometric-mean normalized performance for the given design point."""
        return geomean_normalized(self.by_point[(nrh, with_reset)])

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        lines = ["N_RH    reset  TB-Window(tREFI)  normalized"]
        for (nrh, with_reset) in sorted(self.by_point):
            lines.append(
                f"{nrh:<8d}{'yes' if with_reset else ' no':>5s}  "
                f"{self.windows[(nrh, with_reset)]:16.3f}  "
                f"{self.geomean(nrh, with_reset):10.4f}"
            )
        return "\n".join(lines)


def run(
    nrh_values: Sequence[int] = (256, 512, 1024),
    workloads: Optional[Sequence[str]] = None,
    requests_per_core: Optional[int] = None,
    system: Optional[SystemConfig] = None,
) -> Fig14Result:
    """Run the experiment at the configured scale; returns the result object."""
    workloads = workloads or default_workloads(limit=4)
    by_point: Dict[Tuple[int, bool], List[PerfRow]] = {}
    windows: Dict[Tuple[int, bool], float] = {}
    for nrh in nrh_values:
        for with_reset in (True, False):
            design = "tprac" if with_reset else "tprac_noreset"
            point = DesignPoint(design=design, nrh=nrh)
            matrix = run_perf_matrix(
                [point],
                workloads=workloads,
                requests_per_core=requests_per_core,
                system=system,
            )
            by_point[(nrh, with_reset)] = matrix[point.label()]
            windows[(nrh, with_reset)] = tb_window_for_nrh(
                nrh, with_reset=with_reset
            ).tb_window_trefi
    return Fig14Result(by_point=by_point, windows=windows)


ARTIFACT = ArtifactSpec(
    name="fig14",
    artifact="Figure 14",
    title="Counter-reset policy sensitivity",
    module="repro.experiments.fig14_reset",
    quick=dict(
        nrh_values=(256, 1024),
        workloads=("433.milc", "453.povray"),
        requests_per_core=600,
    ),
)
