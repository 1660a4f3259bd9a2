"""Figure 11: sensitivity to the PRAC level (RFMs per ABO).

Since both TPRAC (via TB-RFMs) and ABO+ACB-RFM (via BAT) eliminate all
ABO-RFMs, the PRAC level never materializes as extra blocking time —
performance is flat across PRAC-1/2/4 for every design (ABO-Only is
flat too, because benign workloads rarely alert at N_RH=1024).  The
paper's slowdowns at every level: TPRAC 3.4%, ABO+ACB 0.7%, ABO-Only
~0%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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
class Fig11Result:
    #: prac_level -> design label -> rows
    by_level: Dict[int, Dict[str, List[PerfRow]]]

    def geomean(self, prac_level: int, design: str) -> float:
        """Geometric-mean normalized performance for the given design point."""
        matrix = self.by_level[prac_level]
        label = next(key for key in matrix if key.startswith(design))
        return geomean_normalized(matrix[label])

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        designs = ["abo_only", "abo_acb", "tprac"]
        lines = ["PRAC-level" + "".join(d.rjust(12) for d in designs)]
        for level, matrix in sorted(self.by_level.items()):
            cells = [self.geomean(level, d) for d in designs]
            lines.append(
                f"PRAC-{level}    " + "".join(f"{c:12.4f}" for c in cells)
            )
        return "\n".join(lines)


def run(
    nrh: int = 1024,
    prac_levels: Sequence[int] = (1, 2, 4),
    workloads: Optional[Sequence[str]] = None,
    requests_per_core: Optional[int] = None,
    system: Optional[SystemConfig] = None,
) -> Fig11Result:
    """Run the experiment at the configured scale; returns the result object."""
    workloads = workloads or default_workloads(limit=6)
    by_level = {}
    for level in prac_levels:
        designs = [
            DesignPoint(design="abo_only", nrh=nrh, prac_level=level),
            DesignPoint(design="abo_acb", nrh=nrh, prac_level=level),
            DesignPoint(design="tprac", nrh=nrh, prac_level=level),
        ]
        by_level[level] = run_perf_matrix(
            designs,
            workloads=workloads,
            requests_per_core=requests_per_core,
            system=system,
        )
    return Fig11Result(by_level=by_level)


ARTIFACT = ArtifactSpec(
    name="fig11",
    artifact="Figure 11",
    title="PRAC-level sensitivity (1/2/4 RFMs per ABO)",
    module="repro.experiments.fig11_prac_levels",
    quick=dict(workloads=("433.milc", "453.povray"), requests_per_core=600),
)
