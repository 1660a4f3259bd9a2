"""Pinned benchmark workloads.

Every workload here is **pinned**: fixed traces, fixed seeds, fixed
request budgets, fixed device config.  Numbers from different revisions
are comparable only because nothing about the simulated work is allowed
to drift — change a workload and you must rename it.

Workloads:

* ``perf_multi_core`` — the paper's performance configuration (4-core
  homogeneous 433.milc under TPRAC at N_RH=1024, the Figure 10 shape).
  This is the acceptance workload for kernel-throughput comparisons.
* ``perf_single_core`` — the same device with a single 433.milc core;
  isolates per-event cost without bank-level parallelism pressure.
* ``perf_multi_channel`` — the multi-core shape on a 2-channel device
  (one controller + TPRAC instance per channel, cache lines striped
  across channels); tracks the cost of the multi-channel wake/dispatch
  machinery.
* ``perf_cached`` — the multi-core shape issued through the L1/L2
  cache hierarchy and a fixed-latency interconnect
  (``SystemConfig(cache="l1l2", interconnect="fixed")``); tracks the
  event-driven cache front-end's per-request cost.
* ``campaign_smoke`` — one pinned Monte Carlo ``perf`` trial through
  :func:`repro.campaigns.runners.run_trial` (the campaign engine's
  whole code path: scenario validation, policy construction, paired
  baseline/mitigated systems).
* ``scheduler_pick`` family — microbenchmark of ``pick`` / ``enqueue``
  over a replayed queue mix (row hits, misses, cap resets), one pinned
  workload **per registered scheduler** (``scheduler_pick`` is the
  historical FR-FCFS point; ``scheduler_pick_<name>`` covers every
  other entry of :data:`repro.controller.scheduler.SCHEDULERS`);
  reported in picks/sec, not events/sec.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

#: Default repetitions / warmup per workload (CLI can override).
DEFAULT_REPS = 5
DEFAULT_WARMUP = 2


@dataclass(frozen=True)
class Measurement:
    """One timed repetition of a bench workload."""

    wall_seconds: float
    events: int            # engine events fired (0 when not applicable)
    sim_ns: float          # simulated nanoseconds covered (0 when n/a)
    work_units: int        # workload-specific unit (requests, picks...)
    unit: str              # name of the workload-specific unit


def _system_measurement(
    cores: int, requests: int, channels: int = 1, **system_axes: object
) -> Measurement:
    from repro.config import SystemConfig
    from repro.experiments.common import DesignPoint, build_system, homogeneous_traces

    traces = homogeneous_traces(
        "433.milc", cores=cores, num_accesses=requests, seed=0
    )
    system = build_system(
        DesignPoint(design="tprac", nrh=1024),
        traces,
        system=SystemConfig(channels=channels, **system_axes),  # type: ignore[arg-type]
    )
    started = time.perf_counter()
    result = system.run()
    wall = time.perf_counter() - started
    return Measurement(
        wall_seconds=wall,
        events=system.engine.events_fired,
        sim_ns=result.elapsed_ns,
        work_units=result.dram_requests,
        unit="requests",
    )


def _perf_multi_core() -> Measurement:
    """4-core homogeneous 433.milc, TPRAC @ N_RH=1024 (Figure 10 shape)."""
    return _system_measurement(cores=4, requests=800)


def _perf_single_core() -> Measurement:
    """1-core 433.milc, TPRAC @ N_RH=1024."""
    return _system_measurement(cores=1, requests=1500)


def _perf_multi_channel() -> Measurement:
    """4-core 433.milc across 2 channels, TPRAC @ N_RH=1024 per channel."""
    return _system_measurement(cores=4, requests=800, channels=2)


def _perf_cached() -> Measurement:
    """The multi-core shape behind the L1/L2 hierarchy + fixed link.

    Tracks the event-driven cache front-end's cost: every request pays
    an L1 (and usually L2 + MSHR) traversal before DRAM, so regressions
    in the hierarchy's hot path show up here and nowhere else.
    """
    return _system_measurement(
        cores=4, requests=800, cache="l1l2", interconnect="fixed"
    )


def _campaign_smoke() -> Measurement:
    """One pinned campaign ``perf`` trial (baseline + mitigated systems)."""
    from repro.campaigns import runners
    from repro.campaigns.scenario import Scenario

    scenario = Scenario(
        attack="perf",
        mitigation="tprac",
        workload="433.milc",
        nbo=1024,
        params={"cores": 2, "requests_per_core": 600},
    )
    telemetry = {"events": 0, "sim_ns": 0.0, "requests": 0}

    def probe(system) -> None:
        telemetry["events"] += system.engine.events_fired
        telemetry["sim_ns"] += system.engine.now
        telemetry["requests"] += system.controller.stats.requests_served

    previous = runners.system_probe
    runners.system_probe = probe
    try:
        started = time.perf_counter()
        runners.run_trial(scenario, seed=0)
        wall = time.perf_counter() - started
    finally:
        runners.system_probe = previous
    return Measurement(
        wall_seconds=wall,
        events=telemetry["events"],
        sim_ns=telemetry["sim_ns"],
        work_units=telemetry["requests"],
        unit="requests",
    )


def _scheduler_pick(scheduler_name: str = "fr_fcfs") -> Measurement:
    """Pick/enqueue microbenchmark over a pinned queue mix.

    The same replayed mix (row hits, misses, cap/batch resets) is run
    through whichever registered scheduler ``scheduler_name`` selects,
    so the per-policy trajectory points are directly comparable.
    """
    from repro.controller.request import MemRequest
    from repro.controller.scheduler import make_scheduler
    from repro.dram.address import DramAddress
    from repro.dram.bank import Bank
    from repro.dram.config import ddr5_8000b

    config = ddr5_8000b()
    bank = Bank(config, bank_id=0)
    rounds = 2000
    depth = 8
    # Deterministic row pattern: interleaved hits and conflicts so pick
    # exercises the scan, the cap logic, and the streak reset.
    rows = [0, 0, 7, 0, 3, 0, 0, 5]
    requests = [
        MemRequest(
            phys_addr=0,
            addr=DramAddress(
                channel=0, rank=0, bank_group=0, bank=0, row=rows[i % len(rows)],
                column=0,
            ),
        )
        for i in range(depth)
    ]
    bank.open_row = 0
    scheduler = make_scheduler(scheduler_name, num_banks=1)
    started = time.perf_counter()
    picks = 0
    for _ in range(rounds):
        for request in requests:
            scheduler.enqueue(request, 0)
        while scheduler.pending(0):
            scheduler.pick(0, bank)
            picks += 1
    wall = time.perf_counter() - started
    return Measurement(
        wall_seconds=wall, events=0, sim_ns=0.0, work_units=picks, unit="picks"
    )


@dataclass(frozen=True)
class BenchWorkload:
    """A named, pinned benchmark workload."""

    name: str
    title: str
    run: Callable[[], Measurement]
    #: acceptance workloads gate kernel-throughput regression checks
    acceptance: bool = False


WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            name="perf_multi_core",
            title="4-core 433.milc, TPRAC@1024 (fig10 shape; pinned perf workload)",
            run=_perf_multi_core,
            acceptance=True,
        ),
        BenchWorkload(
            name="perf_single_core",
            title="1-core 433.milc, TPRAC@1024",
            run=_perf_single_core,
        ),
        BenchWorkload(
            name="perf_multi_channel",
            title="4-core 433.milc, 2 channels, TPRAC@1024 per channel",
            run=_perf_multi_channel,
        ),
        BenchWorkload(
            name="perf_cached",
            title="4-core 433.milc, L1/L2 hierarchy + fixed link, TPRAC@1024",
            run=_perf_cached,
        ),
        BenchWorkload(
            name="campaign_smoke",
            title="pinned campaign perf trial (2-core, baseline+mitigated)",
            run=_campaign_smoke,
        ),
        BenchWorkload(
            name="scheduler_pick",
            title="FrFcfsScheduler pick/enqueue microbench",
            run=_scheduler_pick,
        ),
    )
}


def _register_scheduler_picks() -> None:
    """One ``scheduler_pick_<name>`` workload per registered scheduler.

    ``fr_fcfs`` keeps the historical ``scheduler_pick`` name (renaming
    a pinned workload would orphan its trajectory); every other
    registry entry — including ones future PRs register — gets its own
    pinned point automatically.
    """
    from functools import partial

    from repro.controller.scheduler import SCHEDULERS

    for name in SCHEDULERS.available():
        if name == "fr_fcfs":
            continue
        WORKLOADS[f"scheduler_pick_{name}"] = BenchWorkload(
            name=f"scheduler_pick_{name}",
            title=f"{name} scheduler pick/enqueue microbench",
            run=partial(_scheduler_pick, name),
        )


_register_scheduler_picks()


def workload_names() -> List[str]:
    """Registered bench workload names, stable order."""
    return list(WORKLOADS)


def get_workload(name: str) -> BenchWorkload:
    """Look up one workload; raises KeyError with the known names."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown bench workload {name!r}; have {workload_names()}"
        ) from None
