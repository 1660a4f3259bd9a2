"""Tests for the multi-channel MemorySystem facade."""

import pytest

from repro.controller.memory_system import MemorySystem
from repro.controller.request import MemRequest
from repro.controller.stats import ControllerStats, RfmRecord
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations import NoMitigationPolicy, TpracPolicy


def _config(channels=2, **kwargs):
    return small_test_config(**kwargs).with_organization(channels=channels)


def _drain(engine, memory, max_events=200_000):
    fired = 0
    while engine.pending and fired < max_events:
        engine.step()
        fired += 1
    assert memory.idle()


# ----------------------------------------------------------------------
# Construction / policy wiring
# ----------------------------------------------------------------------
def test_single_channel_enqueue_is_the_controller_bound_method():
    engine = Engine()
    memory = MemorySystem(engine, small_test_config(), enable_refresh=False)
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
            policy_factory=NoMitigationPolicy,
        )


def test_every_channel_gets_its_own_policy_instance():
    memory = MemorySystem(
        Engine(), _config(channels=4), policy_factory=NoMitigationPolicy,
        enable_refresh=False,
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

    MemorySystem(
        Engine(), _config(channels=4), policy_factory=factory,
        enable_refresh=False,
    )
    assert seen == [0, 1, 2, 3]


def test_policy_class_as_factory_is_not_passed_a_channel_id():
    # NoMitigationPolicy.__init__ takes queue_factory; arity-based
    # detection would have smuggled the channel id into it.
    memory = MemorySystem(
        Engine(), _config(channels=2), policy_factory=NoMitigationPolicy,
        enable_refresh=False,
    )
    for controller in memory.controllers:
        assert isinstance(controller.policy, NoMitigationPolicy)


def test_channels_own_disjoint_bank_arrays():
    memory = MemorySystem(Engine(), _config(channels=2), enable_refresh=False)
    banks = list(memory.iter_banks())
    org = memory.config.organization
    assert len(banks) == 2 * org.banks_per_channel
    assert len({id(b) for b in banks}) == len(banks)
    assert len(memory.controllers[0].channel) == org.banks_per_channel


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_requests_route_by_cacheline_interleaving():
    engine = Engine()
    memory = MemorySystem(engine, _config(channels=2), enable_refresh=False)
    lines = 8
    for line in range(lines):
        memory.enqueue(MemRequest(phys_addr=line * 64, core_id=0))
    _drain(engine, memory)
    served = [c.stats.requests_served for c in memory.controllers]
    assert served == [lines // 2, lines // 2]
    assert memory.stats.requests_served == lines


def test_controller_for_matches_routing():
    memory = MemorySystem(Engine(), _config(channels=2), enable_refresh=False)
    assert memory.controller_for(0) is memory.controllers[0]
    assert memory.controller_for(64) is memory.controllers[1]
    assert memory.controller_for(128) is memory.controllers[0]


def test_channel_blocking_does_not_cross_channels():
    """An RFM on channel 0 must not move channel 1's blocking window."""
    engine = Engine()
    memory = MemorySystem(engine, _config(channels=2), enable_refresh=False)
    memory.controllers[0].request_rfm(RfmProvenance.TB)
    _drain(engine, memory)
    assert memory.controllers[0].channel.blocked_until > 0.0
    assert memory.controllers[1].channel.blocked_until == 0.0
    assert memory.rfm_count == 1


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
    assert system.memory.rfm_count == result.rfm_total > 0


def test_per_channel_mitigation_state_is_independent():
    engine = Engine()
    memory = MemorySystem(
        engine,
        _config(channels=2),
        policy_factory=lambda: TpracPolicy(tb_window=1000.0),
        enable_refresh=False,
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
    a.record_completion(5.0, core_id=0, was_hit=True)
    a.record_completion(7.0, core_id=1, was_hit=False)
    b.record_completion(9.0, core_id=0, was_hit=False)
    a.record_rfm(RfmRecord(time=25.0, provenance=RfmProvenance.ABO))
    b.record_rfm(RfmRecord(time=15.0, provenance=RfmProvenance.TB))
    merged = ControllerStats.merged([a, b])
    assert merged.requests_served == 3
    assert merged.row_hits == 1
    assert merged.total_latency == 21.0
    assert merged.core_requests == {0: 2, 1: 1}
    assert merged.core_latency_total == {0: 14.0, 1: 7.0}
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


def test_facade_merged_view_equals_manual_merge():
    engine = Engine()
    memory = MemorySystem(engine, _config(channels=2), enable_refresh=False)
    for line in range(10):
        memory.enqueue(MemRequest(phys_addr=line * 64, core_id=line % 2))
    _drain(engine, memory)
    merged = memory.stats
    assert merged.requests_served == sum(
        s.requests_served for s in memory.per_channel_stats
    )
    assert merged.reads == 10
