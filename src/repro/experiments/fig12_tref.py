"""Figure 12: sensitivity to the Targeted-Refresh (TREF) rate.

TPRAC can skip a TB-RFM whenever a TREF lands in the same window
(Section 4.3): more frequent TREFs -> fewer channel-blocking RFMs ->
less slowdown.  The paper reports 3.4% (no TREF), 2.4%/2.0%/1.4% with
one TREF per 4/3/2 tREFI, and ~0% at one TREF per tREFI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    DesignPoint,
    PerfRow,
    default_workloads,
    geomean_normalized,
    run_perf_matrix,
)
from repro.experiments.registry import ArtifactSpec


@dataclass
class Fig12Result:
    #: tref_per_trefi -> rows
    by_rate: Dict[float, List[PerfRow]]

    def geomean(self, rate: float) -> float:
        """Geometric-mean normalized performance for the given design point."""
        return geomean_normalized(self.by_rate[rate])

    def slowdown_pct(self, rate: float) -> float:
        """Geomean slowdown in percent: 100 * (1 - normalized)."""
        return (1.0 - self.geomean(rate)) * 100.0

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        lines = ["TREF rate (per tREFI)   normalized   slowdown%"]
        for rate in sorted(self.by_rate):
            lines.append(
                f"{rate:21.3f}   {self.geomean(rate):10.4f}   "
                f"{self.slowdown_pct(rate):8.2f}"
            )
        return "\n".join(lines)


def run(
    nrh: int = 1024,
    tref_rates: Sequence[float] = (0.0, 0.25, 1 / 3, 0.5, 1.0),
    workloads: Optional[Sequence[str]] = None,
    requests_per_core: Optional[int] = None,
) -> Fig12Result:
    """Run the experiment at the configured scale; returns the result object."""
    workloads = workloads or default_workloads(limit=6)
    by_rate: Dict[float, List[PerfRow]] = {}
    for rate in tref_rates:
        point = DesignPoint(design="tprac", nrh=nrh, tref_per_trefi=rate)
        matrix = run_perf_matrix(
            [point],
            workloads=workloads,
            requests_per_core=requests_per_core,
        )
        by_rate[rate] = matrix[point.label()]
    return Fig12Result(by_rate=by_rate)


ARTIFACT = ArtifactSpec(
    name="fig12",
    artifact="Figure 12",
    title="Targeted-Refresh rate sensitivity",
    module="repro.experiments.fig12_tref",
    quick=dict(
        tref_rates=(0.0, 0.5, 1.0),
        workloads=("433.milc", "453.povray"),
        requests_per_core=600,
    ),
)
