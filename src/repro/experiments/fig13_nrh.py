"""Figure 13: performance vs RowHammer threshold (N_RH = 128..4096).

The TB-Window scales with N_BO (lower thresholds need more frequent
TB-RFMs), so TPRAC's slowdown rises as N_RH drops: the paper reports
0.6/1.6/3.4/6.5/14.1/22.6% at 4096/2048/1024/512/256/128.  ABO+ACB-RFM
tracks the same trend with lower overhead but remains leaky; ABO-Only
stays near zero everywhere.
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
class Fig13Result:
    #: nrh -> design label -> rows
    by_nrh: Dict[int, Dict[str, List[PerfRow]]]

    def geomean(self, nrh: int, design: str) -> float:
        """Geometric-mean normalized performance for the given design point."""
        matrix = self.by_nrh[nrh]
        label = next(key for key in matrix if key.startswith(design))
        return geomean_normalized(matrix[label])

    def slowdown_pct(self, nrh: int, design: str) -> float:
        """Geomean slowdown in percent: 100 * (1 - normalized)."""
        return (1.0 - self.geomean(nrh, design)) * 100.0

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        designs = ["abo_only", "abo_acb", "tprac"]
        lines = ["N_RH    " + "".join(d.rjust(12) for d in designs)]
        for nrh in sorted(self.by_nrh):
            cells = [self.geomean(nrh, d) for d in designs]
            lines.append(f"{nrh:<8d}" + "".join(f"{c:12.4f}" for c in cells))
        return "\n".join(lines)


def run(
    nrh_values: Sequence[int] = (128, 256, 512, 1024, 2048, 4096),
    workloads: Optional[Sequence[str]] = None,
    requests_per_core: Optional[int] = None,
    tref_per_trefi: float = 0.0,
) -> Fig13Result:
    """Run the experiment at the configured scale; returns the result object."""
    workloads = workloads or default_workloads(limit=6)
    by_nrh: Dict[int, Dict[str, List[PerfRow]]] = {}
    for nrh in nrh_values:
        designs = [
            DesignPoint(design="abo_only", nrh=nrh),
            DesignPoint(design="abo_acb", nrh=nrh),
            DesignPoint(design="tprac", nrh=nrh, tref_per_trefi=tref_per_trefi),
        ]
        by_nrh[nrh] = run_perf_matrix(
            designs,
            workloads=workloads,
            requests_per_core=requests_per_core,
        )
    return Fig13Result(by_nrh=by_nrh)


ARTIFACT = ArtifactSpec(
    name="fig13",
    artifact="Figure 13",
    title="N_RH sweep 128..4096, all designs",
    module="repro.experiments.fig13_nrh",
    quick=dict(
        nrh_values=(256, 1024, 4096),
        workloads=("433.milc", "453.povray"),
        requests_per_core=600,
    ),
)
