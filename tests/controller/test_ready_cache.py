"""Equivalence net for the controller's ready-time agenda.

The agenda (a min-heap of ``(ready_time, bank_id)``, one entry per busy
bank) is a cache of ready times, kept current at enqueue and serve and
marked stale by channel-wide moves.  It must be invisible: every
simulation must produce exactly the results it would if the agenda were
rebuilt from the busy banks before every wake.  Running both variants
across every mitigation exercises each policy's bank/channel mutation
pattern — a policy that mutates bank timing state without marking the
agenda stale (the rfmpb ``block_bank`` regression) fails here.
"""

import pytest

from repro.cpu.system import System
from repro.dram.config import ddr5_8000b
from repro.mitigations import available, policy_factory
from repro.workloads.synthetic import homogeneous_traces


def _run(mitigation, rebuild_every_wake):
    traces = homogeneous_traces("433.milc", cores=2, num_accesses=400, seed=3)
    system = System(
        traces,
        policy=policy_factory(mitigation, ddr5_8000b().with_prac(nbo=64), seed=3)(),
    )
    uncached_wakes = 0
    if rebuild_every_wake:
        controller = system.controller
        original_wake = controller._wake

        def uncached_wake():
            nonlocal uncached_wakes
            uncached_wakes += 1
            controller._invalidate_ready_cache()
            original_wake()

        controller._wake = uncached_wake  # type: ignore[method-assign]
    result = system.run()
    stats = system.controller.stats
    return (
        result.elapsed_ns,
        result.ipcs,
        stats.total_latency,
        stats.row_hits,
        stats.row_conflicts,
        len(stats.rfm_records),
        system.engine.events_fired,
    ), uncached_wakes


@pytest.mark.slow
@pytest.mark.parametrize("mitigation", sorted(available()))
def test_ready_cache_is_invisible_for_every_mitigation(mitigation):
    cached, _ = _run(mitigation, rebuild_every_wake=False)
    uncached, uncached_wakes = _run(mitigation, rebuild_every_wake=True)
    # The swap must reach the wake loop: a controller that bound its
    # wake before the swap would run the agenda in both variants.
    assert uncached_wakes > 0
    assert cached == uncached
