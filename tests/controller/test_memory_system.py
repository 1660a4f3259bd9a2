"""Tests for the multi-channel MemorySystem facade."""

from functools import partial

import pytest

from repro.controller import memory_system as memory_system_mod
from repro.controller.controller import MemoryController
from repro.controller.memory_system import MemorySystem
from repro.controller.request import MemRequest
from repro.controller.stats import ControllerStats, RfmRecord
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations import NoMitigationPolicy, TpracPolicy


def _config(channels=2, **kwargs):
    return small_test_config(**kwargs).with_organization(channels=channels)


@pytest.fixture
def unrefreshed(monkeypatch):
    """``MemorySystem``, but every controller it builds runs without
    periodic REF, so :func:`_drain` can run the engine dry (the facade
    itself always refreshes)."""
    monkeypatch.setattr(
        memory_system_mod,
        "MemoryController",
        partial(MemoryController, enable_refresh=False),
    )
    return MemorySystem


def _drain(engine, memory):
    # Refresh is off in these systems, so the queue empties once every
    # request and RFM has been served.
    engine.run()
    assert all(c.scheduler.pending() == 0 for c in memory.controllers)


# ----------------------------------------------------------------------
# Construction / policy wiring
# ----------------------------------------------------------------------
def test_single_channel_enqueue_is_the_controller_bound_method():
    engine = Engine()
    memory = MemorySystem(engine, small_test_config())
    assert memory.channels == 1
    assert memory.enqueue == memory.controllers[0].enqueue
    assert memory.stats is memory.controllers[0].stats


def test_multi_channel_rejects_shared_policy_instance():
    with pytest.raises(ValueError, match="policy_factory"):
        MemorySystem(Engine(), _config(), policy=NoMitigationPolicy())


def test_policy_and_factory_are_mutually_exclusive():
    with pytest.raises(ValueError, match="not both"):
        MemorySystem(
            Engine(),
            small_test_config(),
            policy=NoMitigationPolicy(),
            policy_factory=lambda channel_id: NoMitigationPolicy(),
        )


def test_every_channel_gets_its_own_policy_instance():
    memory = MemorySystem(
        Engine(), _config(channels=4),
        policy_factory=lambda channel_id: NoMitigationPolicy(),
    )
    policies = [controller.policy for controller in memory.controllers]
    assert len(policies) == 4
    assert len({id(p) for p in policies}) == 4
    for controller, policy in zip(memory.controllers, policies):
        assert policy.controller is controller


def test_factory_with_channel_id_parameter_receives_the_channel():
    seen = []

    def factory(channel_id):
        seen.append(channel_id)
        return NoMitigationPolicy()

    MemorySystem(Engine(), _config(channels=4), policy_factory=factory)
    assert seen == [0, 1, 2, 3]


def test_channels_own_disjoint_bank_arrays():
    memory = MemorySystem(Engine(), _config(channels=2))
    banks = [bank for controller in memory.controllers for bank in controller.channel]
    org = memory.config.organization
    assert len(banks) == 2 * org.banks_per_channel
    assert len({id(b) for b in banks}) == len(banks)
    assert len(memory.controllers[0].channel.banks) == org.banks_per_channel


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_requests_route_by_cacheline_interleaving(unrefreshed):
    engine = Engine()
    memory = unrefreshed(engine, _config(channels=2))
    lines = 8
    for line in range(lines):
        memory.enqueue(MemRequest(phys_addr=line * 64, core_id=0))
    _drain(engine, memory)
    served = [c.stats.requests_served for c in memory.controllers]
    assert served == [lines // 2, lines // 2]
    assert memory.stats.requests_served == lines


def test_controller_for_matches_routing(unrefreshed):
    # The controller for an address is the one its channel bits name:
    # each request is served by controllers[mapping.channel_of(addr)].
    engine = Engine()
    memory = unrefreshed(engine, _config(channels=2))
    for addr, channel in ((0, 0), (64, 1), (128, 0)):
        assert memory.mapping.channel_of(addr) == channel
        before = [c.stats.requests_served for c in memory.controllers]
        memory.enqueue(MemRequest(phys_addr=addr, core_id=0))
        _drain(engine, memory)
        served = [c.stats.requests_served - b for c, b in zip(memory.controllers, before)]
        assert served == [1 - channel, channel]


def test_channel_blocking_does_not_cross_channels(unrefreshed):
    """An RFM on channel 0 must not move channel 1's blocking window."""
    engine = Engine()
    memory = unrefreshed(engine, _config(channels=2))
    memory.controllers[0].request_rfm(RfmProvenance.TB)
    _drain(engine, memory)
    assert memory.controllers[0].channel.blocked_until > 0.0
    assert memory.controllers[1].channel.blocked_until == 0.0
    assert memory.stats.rfm_count() == 1


def test_rfm_count_includes_per_bank_rfms():
    """RFMpb TB-RFMs count too: the campaign's rfmpb perf trial."""
    from repro.campaigns.scenario import Scenario
    from repro.cpu.system import System
    from repro.mitigations import policy_factory
    from repro.workloads.synthetic import homogeneous_traces

    config = Scenario(attack="perf", mitigation="rfmpb").dram_config()
    traces = homogeneous_traces("433.milc", cores=2, num_accesses=600, seed=0)
    system = System(
        traces, config=config, policy_factory=policy_factory("rfmpb", config)
    )
    result = system.run()
    assert system.memory.stats.rfm_count() == result.rfm_total > 0


def test_per_channel_mitigation_state_is_independent(unrefreshed):
    engine = Engine()
    memory = unrefreshed(
        engine,
        _config(channels=2),
        policy_factory=lambda channel_id: TpracPolicy(tb_window=1000.0),
    )
    # Traffic only on channel 0 (even cache lines).  The TB timers
    # re-arm forever, so run to a horizon instead of queue exhaustion.
    for line in range(0, 64, 2):
        memory.enqueue(MemRequest(phys_addr=line * 64, core_id=0))
    engine.run(until=50_000.0)
    assert memory.controllers[0].stats.requests_served == 32
    assert memory.controllers[1].stats.requests_served == 0


# ----------------------------------------------------------------------
# Merged statistics
# ----------------------------------------------------------------------
def test_merged_stats_counters_sum_and_records_interleave():
    a = ControllerStats()
    b = ControllerStats()
    a.record_completion(5.0, was_hit=True)
    a.record_completion(7.0, was_hit=False)
    b.record_completion(9.0, was_hit=False)
    a.record_rfm(RfmRecord(time=25.0, provenance=RfmProvenance.ABO))
    b.record_rfm(RfmRecord(time=15.0, provenance=RfmProvenance.TB))
    merged = ControllerStats.merged([a, b])
    assert merged.requests_served == 3
    assert merged.row_hits == 1
    assert merged.total_latency == 21.0
    assert [r.time for r in merged.rfm_records] == [15.0, 25.0]
    assert merged.rfm_count(RfmProvenance.ABO) == 1
    assert merged.rfm_count(RfmProvenance.TB) == 1
    assert merged.rfm_count() == 2


def test_merged_stats_single_part_returns_live_object():
    stats = ControllerStats()
    assert ControllerStats.merged([stats]) is stats


def test_merged_stats_empty_is_zeroed():
    merged = ControllerStats.merged([])
    assert merged.requests_served == 0
    assert merged.mean_latency == 0.0


def test_facade_merged_view_equals_manual_merge(unrefreshed):
    engine = Engine()
    memory = unrefreshed(engine, _config(channels=2))
    for line in range(10):
        memory.enqueue(MemRequest(phys_addr=line * 64, core_id=line % 2))
    _drain(engine, memory)
    merged = memory.stats
    assert merged.requests_served == sum(
        s.requests_served for s in memory.per_channel_stats
    )
    assert merged.reads == 10
