"""Workload substrate: the paper's 50-workload evaluation set.

The paper evaluates SPEC2006/SPEC2017/CloudSuite traces categorized by
row-buffer misses per kilo-instruction (RBMPKI): High (>= 10), Medium
(1-10), Low (< 1).  Binary traces are not redistributable, so this
package provides a deterministic synthetic generator per workload,
calibrated to each workload's published memory-intensity class (see
DESIGN.md's substitution table).
"""

from repro.workloads.catalog import (
    CATALOG,
    WorkloadSpec,
    get_workload,
    workload_names,
)
from repro.workloads.synthetic import SyntheticWorkload, generate_trace

__all__ = [
    "CATALOG",
    "SyntheticWorkload",
    "WorkloadSpec",
    "generate_trace",
    "get_workload",
    "workload_names",
]
