"""Shared experiment plumbing: design builders and the perf matrix."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import geometric_mean
from repro.config import SystemConfig
from repro.cpu.system import System
from repro.dram.config import DramConfig, ddr5_8000b
from repro.mitigations import policy_factory
from repro.workloads.catalog import workload_names
from repro.workloads.synthetic import homogeneous_traces


def default_workloads(limit: Optional[int] = None) -> List[str]:
    """A category-balanced workload subset (six high-, three medium- and
    three low-intensity workloads), cut to the first ``limit``."""
    names = (
        workload_names("H")[:6] + workload_names("M")[:3] + workload_names("L")[:3]
    )
    return names[:limit]


@dataclass
class DesignPoint:
    """One (design, N_RH) operating point for the performance studies."""

    design: str               # a mitigation registry name, or tprac_noreset
    nrh: int
    tref_per_trefi: float = 0.0
    prac_level: int = 1

    def label(self) -> str:
        """Short unique identifier used as the results-matrix key."""
        suffix = f"+tref{self.tref_per_trefi:g}" if self.tref_per_trefi else ""
        return f"{self.design}{suffix}@{self.nrh}"


def build_system(
    point: DesignPoint,
    traces,
    config: Optional[DramConfig] = None,
    system: Optional[SystemConfig] = None,
    seed: int = 0,
) -> System:
    """Instantiate the simulated system for a design point.

    ``point.design`` is any mitigation registry name
    (:func:`repro.mitigations.available`) or ``tprac_noreset`` (TPRAC
    without the tREFW counter reset).  N_BO is ``point.nrh``; the
    policy comes from :func:`repro.mitigations.policy_factory`, which
    derives TB-Window or BAT from the device and seeds ``obfuscation``
    from ``seed``.  ``none`` is the paper's normalization baseline:
    PRAC timings without ABO.  ``system``
    (:class:`repro.config.SystemConfig`) carries the
    sanitizer/trace/metrics switches, as campaign perf trials pass
    them; the default builds the unobserved system every artifact
    runs.
    """
    config = config or ddr5_8000b()
    with_reset = point.design != "tprac_noreset"
    name = "tprac" if point.design == "tprac_noreset" else point.design
    config = config.with_prac(
        nbo=point.nrh, prac_level=point.prac_level, reset_on_refresh=with_reset
    )
    return System(
        traces,
        config=config,
        policy=policy_factory(name, config, seed=seed),
        enable_abo=name != "none",
        tref_per_trefi=point.tref_per_trefi,
        system=system,
    )


@dataclass
class PerfRow:
    """Normalized performance of one workload under one design."""

    workload: str
    design: str
    normalized: float
    baseline_ipc: float
    design_ipc: float
    rfms: int


def run_perf_matrix(
    designs: Sequence[DesignPoint],
    workloads: Optional[Sequence[str]] = None,
    cores: int = 4,
    requests_per_core: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, List[PerfRow]]:
    """Run each workload under the baseline and every design.

    Returns design-label -> rows.  Normalization baseline is the
    PRAC-without-ABO system (the paper's Figure 10 baseline).
    """
    workloads = list(workloads or default_workloads())
    requests = requests_per_core or 2_500
    out: Dict[str, List[PerfRow]] = {p.label(): [] for p in designs}
    for name in workloads:
        traces = homogeneous_traces(name, cores=cores, num_accesses=requests, seed=seed)
        baseline_point = DesignPoint(design="none", nrh=designs[0].nrh)
        base = build_system(baseline_point, traces).run()
        for point in designs:
            result = build_system(point, traces).run()
            out[point.label()].append(
                PerfRow(
                    workload=name,
                    design=point.label(),
                    normalized=result.total_ipc / base.total_ipc,
                    baseline_ipc=base.total_ipc,
                    design_ipc=result.total_ipc,
                    rfms=result.rfm_total,
                )
            )
    return out


def geomean_normalized(rows: List[PerfRow]) -> float:
    """Geometric mean of the rows' normalized performance."""
    return geometric_mean([row.normalized for row in rows])


def format_perf_table(matrix: Dict[str, List[PerfRow]]) -> str:
    """Per-workload normalized performance plus geomean, per design."""
    designs = list(matrix)
    workloads = [row.workload for row in matrix[designs[0]]]
    lines = ["workload".ljust(18) + "".join(d.rjust(22) for d in designs)]
    for index, workload in enumerate(workloads):
        cells = [matrix[d][index].normalized for d in designs]
        lines.append(
            workload.ljust(18) + "".join(f"{c:22.4f}" for c in cells)
        )
    lines.append(
        "GEOMEAN".ljust(18)
        + "".join(f"{geomean_normalized(matrix[d]):22.4f}" for d in designs)
    )
    return "\n".join(lines)
