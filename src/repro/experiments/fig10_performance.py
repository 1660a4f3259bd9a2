"""Figure 10: normalized performance at N_RH = 1024.

Three designs against the PRAC-without-ABO baseline over the workload
catalog (4-core homogeneous):

* ABO-Only — near-zero slowdown (ABO-RFMs are rare for benign apps);
* ABO+ACB-RFM — ~0.7% (BAT-triggered RFMs only under heavy activity);
* TPRAC — ~3.4% average (one TB-RFM per solved TB-Window blocks the
  channel 350 ns, a ~5% peak-bandwidth loss felt by memory-intensive
  workloads; the paper's worst case, 433.milc, loses ~8.3%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    DesignPoint,
    PerfRow,
    default_workloads,
    format_perf_table,
    geomean_normalized,
    run_perf_matrix,
)
from repro.experiments.registry import ArtifactSpec


@dataclass
class Fig10Result:
    matrix: Dict[str, List[PerfRow]]
    nrh: int

    def geomean(self, design_label: str) -> float:
        """Geometric-mean normalized performance for the given design point."""
        return geomean_normalized(self.matrix[design_label])

    def slowdown_pct(self, design_label: str) -> float:
        """Geomean slowdown in percent: 100 * (1 - normalized)."""
        return (1.0 - self.geomean(design_label)) * 100.0

    def worst_workload(self, design_label: str) -> PerfRow:
        """The workload with the lowest normalized performance."""
        return min(self.matrix[design_label], key=lambda row: row.normalized)

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        return format_perf_table(self.matrix)


def run(
    nrh: int = 1024,
    workloads: Optional[Sequence[str]] = None,
    requests_per_core: Optional[int] = None,
) -> Fig10Result:
    """Run the experiment at the configured scale; returns the result object."""
    designs = [
        DesignPoint(design="abo_only", nrh=nrh),
        DesignPoint(design="abo_acb", nrh=nrh),
        DesignPoint(design="tprac", nrh=nrh),
    ]
    matrix = run_perf_matrix(
        designs,
        workloads=workloads or default_workloads(),
        requests_per_core=requests_per_core,
    )
    return Fig10Result(matrix=matrix, nrh=nrh)


ARTIFACT = ArtifactSpec(
    name="fig10",
    artifact="Figure 10",
    title="Normalized performance at N_RH=1024, three designs",
    module="repro.experiments.fig10_performance",
    quick=dict(workloads=("433.milc", "453.povray"), requests_per_core=800),
)
