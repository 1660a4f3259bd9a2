"""The measurement harness: warmup, repetitions, rate derivation.

A bench run executes each selected workload ``warmup`` times untimed,
then ``reps`` timed repetitions, and derives rates from the **best**
repetition (throughput benchmarks report the least-interfered run; the
median and every raw wall time are kept alongside for noise auditing).
"""

from __future__ import annotations

import platform
import sys
import time
from typing import Any, Dict, Iterable, Optional

from repro import __version__
from repro.bench.workloads import (
    DEFAULT_REPS,
    DEFAULT_WARMUP,
    get_workload,
    workload_names,
)


def measure_workload(
    name: str, reps: int = DEFAULT_REPS, warmup: int = DEFAULT_WARMUP
) -> Dict[str, Any]:
    """Run one workload; returns its JSON-able result block."""
    if reps <= 0:
        raise ValueError("reps must be positive")
    workload = get_workload(name)
    for _ in range(warmup):
        workload.run()
    measurements = [workload.run() for _ in range(reps)]
    walls = sorted(m.wall_seconds for m in measurements)
    best = min(measurements, key=lambda m: m.wall_seconds)
    block: Dict[str, Any] = {
        "title": workload.title,
        "acceptance": workload.acceptance,
        "reps": reps,
        "warmup": warmup,
        "unit": best.unit,
        "work_units": best.work_units,
        "events": best.events,
        "sim_ns": best.sim_ns,
        "wall_seconds_best": walls[0],
        "wall_seconds_median": walls[len(walls) // 2],
        "wall_seconds_all": [m.wall_seconds for m in measurements],
        "units_per_sec": best.work_units / best.wall_seconds,
    }
    if best.events:
        block["events_per_sec"] = best.events / best.wall_seconds
    if best.sim_ns:
        block["sim_ns_per_sec"] = best.sim_ns / best.wall_seconds
    return block


def run_bench(
    names: Optional[Iterable[str]] = None,
    reps: int = DEFAULT_REPS,
    warmup: int = DEFAULT_WARMUP,
    rev: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the selected (default: all) workloads into one report dict."""
    selected = list(names) if names is not None else workload_names()
    report: Dict[str, Any] = {
        "schema": "repro-bench-v1",
        "rev": rev or detect_revision(),
        "git": git_describe(),
        "version": __version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "timestamp": time.time(),
        "workloads": {name: measure_workload(name, reps, warmup) for name in selected},
    }
    return report


# ----------------------------------------------------------------------
def git_describe() -> Optional[str]:
    """Short git revision of the working tree, or None outside git."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    rev = out.stdout.strip()
    dirty = subprocess.run(
        ["git", "status", "--porcelain"], capture_output=True, text=True, timeout=10
    )
    if dirty.returncode == 0 and dirty.stdout.strip():
        rev += "-dirty"
    return rev or None


def detect_revision() -> str:
    """Label for the BENCH file name: git revision or package version."""
    return git_describe() or f"v{__version__}"
