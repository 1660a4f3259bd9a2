"""The 50-workload catalog (paper Table 4).

Every workload the paper evaluates appears here with a synthetic-trace
parameterization: target RBMPKI (row-buffer misses per kilo
instruction), row-buffer locality, memory footprint and write fraction.
RBMPKI values are chosen inside each workload's published category
(High >= 10, Medium 1-10, Low < 1), graded so that known
memory-monsters (mcf, lbm, milc) sit at the top.  433.milc is given the
lowest row locality, mirroring its role as the paper's worst case
(8.3% slowdown via extra row-buffer misses, Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic-trace parameters for one named workload."""

    name: str
    suite: str            # spec2006 / spec2017 / cloudsuite
    category: str         # H / M / L
    rbmpki: float         # target row-buffer misses per kilo instruction
    row_locality: float   # probability the next access stays in-row
    footprint_rows: int   # how many distinct DRAM rows the workload touches
    write_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.category not in ("H", "M", "L"):
            raise ValueError("category must be H, M or L")
        if not 0 <= self.row_locality < 1:
            raise ValueError("row_locality must be in [0, 1)")
        if self.rbmpki <= 0:
            raise ValueError("rbmpki must be positive")


def _spec(name, suite, category, rbmpki, locality, rows, writes=0.25):
    return WorkloadSpec(
        name=name,
        suite=suite,
        category=category,
        rbmpki=rbmpki,
        row_locality=locality,
        footprint_rows=rows,
        write_fraction=writes,
    )


#: The paper's Table 4, one entry per workload (duplicates in the table
#: collapsed to single entries; the count stays at 50).
CATALOG: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        # ---- High intensity (RBMPKI >= 10) ---------------------------
        _spec("nutch", "cloudsuite", "H", 14.0, 0.35, 4096, 0.30),
        _spec("cassandra", "cloudsuite", "H", 12.0, 0.40, 4096, 0.35),
        _spec("classification", "cloudsuite", "H", 16.0, 0.30, 4096, 0.20),
        _spec("cloud9", "cloudsuite", "H", 11.0, 0.40, 4096, 0.30),
        _spec("433.milc", "spec2006", "H", 26.0, 0.08, 8192, 0.30),
        _spec("410.bwaves", "spec2006", "H", 20.0, 0.55, 6144, 0.20),
        _spec("470.lbm", "spec2006", "H", 32.0, 0.50, 8192, 0.45),
        _spec("471.omnetpp", "spec2006", "H", 21.0, 0.25, 6144, 0.30),
        _spec("483.xalancbmk", "spec2006", "H", 23.0, 0.25, 6144, 0.20),
        _spec("519.lbm", "spec2017", "H", 34.0, 0.50, 8192, 0.45),
        _spec("520.omnetpp", "spec2017", "H", 19.0, 0.25, 6144, 0.30),
        _spec("649.fotonik3d", "spec2017", "H", 18.0, 0.55, 6144, 0.25),
        _spec("450.soplex", "spec2006", "H", 17.0, 0.40, 6144, 0.20),
        _spec("619.lbm", "spec2017", "H", 36.0, 0.50, 8192, 0.45),
        _spec("429.mcf", "spec2006", "H", 38.0, 0.15, 8192, 0.20),
        _spec("654.roms", "spec2017", "H", 13.0, 0.55, 6144, 0.25),
        _spec("605.mcf", "spec2017", "H", 30.0, 0.15, 8192, 0.20),
        _spec("482.sphinx3", "spec2006", "H", 12.0, 0.45, 4096, 0.10),
        _spec("437.leslie3d", "spec2006", "H", 15.0, 0.55, 6144, 0.25),
        _spec("627.cam4", "spec2017", "H", 11.0, 0.45, 4096, 0.25),
        _spec("620.omnetpp", "spec2017", "H", 18.0, 0.25, 6144, 0.30),
        _spec("628.pop2", "spec2017", "H", 10.5, 0.45, 4096, 0.25),
        _spec("607.cactuBSSN", "spec2017", "H", 12.5, 0.50, 6144, 0.30),
        _spec("436.cactusADM", "spec2006", "H", 11.5, 0.50, 6144, 0.30),
        _spec("459.GemsFDTD", "spec2006", "H", 16.5, 0.55, 6144, 0.25),
        # ---- Medium intensity (1 <= RBMPKI < 10) ---------------------
        _spec("401.bzip2", "spec2006", "M", 3.5, 0.50, 2048, 0.25),
        _spec("657.xz", "spec2017", "M", 4.0, 0.45, 2048, 0.30),
        _spec("602.gcc", "spec2017", "M", 2.5, 0.50, 2048, 0.25),
        _spec("473.astar", "spec2006", "M", 5.0, 0.35, 2048, 0.20),
        _spec("623.xalancbmk", "spec2017", "M", 6.0, 0.30, 2048, 0.20),
        _spec("464.h264ref", "spec2006", "M", 1.5, 0.60, 1024, 0.25),
        _spec("481.wrf", "spec2006", "M", 2.0, 0.55, 2048, 0.25),
        # ---- Low intensity (RBMPKI < 1) ------------------------------
        _spec("631.deepsjeng", "spec2017", "L", 0.60, 0.50, 512, 0.25),
        _spec("458.sjeng", "spec2006", "L", 0.50, 0.50, 512, 0.25),
        _spec("456.hmmer", "spec2006", "L", 0.30, 0.60, 512, 0.20),
        _spec("625.x264", "spec2017", "L", 0.45, 0.60, 512, 0.25),
        _spec("403.gcc", "spec2006", "L", 0.70, 0.50, 512, 0.25),
        _spec("444.namd", "spec2006", "L", 0.25, 0.60, 512, 0.20),
        _spec("603.bwaves", "spec2017", "L", 0.80, 0.60, 1024, 0.20),
        _spec("638.imagick", "spec2017", "L", 0.15, 0.65, 512, 0.25),
        _spec("644.nab", "spec2017", "L", 0.35, 0.60, 512, 0.25),
        _spec("600.perlbench", "spec2017", "L", 0.40, 0.55, 512, 0.25),
        _spec("621.wrf", "spec2017", "L", 0.55, 0.60, 1024, 0.25),
        _spec("465.tonto", "spec2006", "L", 0.20, 0.60, 512, 0.20),
        _spec("447.dealII", "spec2006", "L", 0.30, 0.60, 512, 0.20),
        _spec("435.gromacs", "spec2006", "L", 0.45, 0.55, 512, 0.25),
        _spec("641.leela", "spec2017", "L", 0.10, 0.55, 256, 0.20),
        _spec("454.calculix", "spec2006", "L", 0.25, 0.60, 512, 0.20),
        _spec("445.gobmk", "spec2006", "L", 0.50, 0.50, 512, 0.25),
        _spec("453.povray", "spec2006", "L", 0.05, 0.60, 256, 0.20),
        _spec("416.gamess", "spec2006", "L", 0.08, 0.60, 256, 0.20),
        _spec("648.exchange2", "spec2017", "L", 0.05, 0.55, 256, 0.15),
    ]
}


def workload_names(category: Optional[str] = None, suite: Optional[str] = None) -> List[str]:
    """Names filtered by category (H/M/L) and/or suite."""
    names = []
    for name, spec in CATALOG.items():
        if category is not None and spec.category != category:
            continue
        if suite is not None and spec.suite != suite:
            continue
        names.append(name)
    return names


def get_workload(name: str) -> WorkloadSpec:
    """Look up a catalog entry by name; raises KeyError with guidance."""
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; see repro.workloads.workload_names()"
        ) from None
