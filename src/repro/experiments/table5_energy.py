"""Table 5: TPRAC energy overhead vs N_RH.

Two overhead components, both relative to the no-mitigation baseline:
the mitigation energy (five extra activations per bank per RFM: four
victim refreshes + one counter-reset write) and the non-mitigation
energy (longer execution burns more background power).  Paper totals:
44.3/26.1/10.4/7.4/2.6/1.0 % at N_RH 128..4096.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.energy import EnergyModel, EnergyOverhead
from repro.experiments.common import (
    DesignPoint,
    build_system,
    default_workloads,
)
from repro.workloads.synthetic import homogeneous_traces
from repro.experiments.registry import ArtifactSpec


@dataclass
class Table5Result:
    #: nrh -> averaged overhead
    by_nrh: Dict[int, EnergyOverhead]

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        lines = ["N_RH    mitigation%   non-mitigation%   total%"]
        for nrh in sorted(self.by_nrh):
            o = self.by_nrh[nrh]
            lines.append(
                f"{nrh:<8d}{o.mitigation_pct:10.2f}   {o.non_mitigation_pct:15.2f}"
                f"   {o.total_pct:6.2f}"
            )
        return "\n".join(lines)


def run(
    nrh_values: Sequence[int] = (128, 256, 512, 1024, 2048, 4096),
    workloads: Optional[Sequence[str]] = None,
    requests_per_core: Optional[int] = None,
) -> Table5Result:
    """Run the experiment at the configured scale; returns the result object."""
    workloads = list(workloads or default_workloads(limit=4))
    requests = requests_per_core or 2_000
    model = EnergyModel()
    by_nrh: Dict[int, EnergyOverhead] = {}
    for nrh in nrh_values:
        mitigation_pcts: List[float] = []
        non_mitigation_pcts: List[float] = []
        for name in workloads:
            traces = homogeneous_traces(name, cores=4, num_accesses=requests)
            base_sys = build_system(DesignPoint(design="none", nrh=nrh), traces)
            base_sys.run()
            base_energy = model.from_memory_system(base_sys.memory)
            tprac_sys = build_system(DesignPoint(design="tprac", nrh=nrh), traces)
            tprac_sys.run()
            tprac_energy = model.from_memory_system(tprac_sys.memory)
            overhead = tprac_energy.overhead_vs(base_energy)
            mitigation_pcts.append(overhead.mitigation_pct)
            non_mitigation_pcts.append(overhead.non_mitigation_pct)
        by_nrh[nrh] = EnergyOverhead(
            mitigation_pct=sum(mitigation_pcts) / len(mitigation_pcts),
            non_mitigation_pct=sum(non_mitigation_pcts) / len(non_mitigation_pcts),
        )
    return Table5Result(by_nrh=by_nrh)


ARTIFACT = ArtifactSpec(
    name="table5",
    artifact="Table 5",
    title="Energy overhead split per N_RH",
    module="repro.experiments.table5_energy",
    quick=dict(
        nrh_values=(256, 1024, 4096),
        workloads=("433.milc", "453.povray"),
        requests_per_core=600,
    ),
)
