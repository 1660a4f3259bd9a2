"""Integration tests for the multicore System wrapper."""

import pytest

from repro.cpu.system import System
from tests.cpu.trace_helpers import synthesize_trace
from repro.dram.config import small_test_config
from repro.mitigations import NoMitigationPolicy, TpracPolicy
from repro.workloads.synthetic import homogeneous_traces


def _traces(cores=2, n=60):
    return [
        synthesize_trace([(c * 1000 + i) * 2**18 for i in range(n)], gap_insts=20)
        for c in range(cores)
    ]


def _line_traces(cores=2, n=60):
    """Cache-line-granular addresses, so requests stripe across channels."""
    return [
        synthesize_trace(
            [(c * 4096 + i) * 64 for i in range(n)], gap_insts=20
        )
        for c in range(cores)
    ]


def test_system_runs_all_cores():
    system = System(
        _traces(), config=small_test_config(), policy=NoMitigationPolicy(),
        enable_abo=False,
    )
    result = system.run()
    assert len(result.ipcs) == 2
    assert all(ipc > 0 for ipc in result.ipcs)
    assert result.dram_requests == 120


def test_empty_traces_rejected():
    with pytest.raises(ValueError):
        System([])


def test_result_aggregates_rfms_by_provenance():
    system = System(
        _traces(),
        config=small_test_config(),
        policy=TpracPolicy(tb_window=2000.0),
        enable_abo=False,
    )
    result = system.run()
    assert result.rfm_total > 0
    assert result.rfm_by_provenance.get("tb", 0) == result.rfm_total


def test_tprac_slows_down_vs_baseline():
    traces = homogeneous_traces("470.lbm", cores=2, num_accesses=2500)
    base = System(traces, policy=NoMitigationPolicy(), enable_abo=False).run()
    # Aggressively short TB-Window so several RFMs land in the run.
    slow = System(traces, policy=TpracPolicy(tb_window=2000.0)).run()
    assert slow.rfm_total > 3
    assert slow.total_ipc < base.total_ipc
    assert 0.70 < slow.total_ipc / base.total_ipc < 1.0


def test_identical_runs_are_deterministic():
    traces = _traces()

    def once():
        return System(
            traces, config=small_test_config(), policy=NoMitigationPolicy(),
            enable_abo=False,
        ).run()

    first, second = once(), once()
    assert first.ipcs == second.ipcs
    assert first.elapsed_ns == second.elapsed_ns


def test_multi_channel_conserves_requests_and_reports_per_channel():
    config = small_test_config().with_organization(channels=2)
    system = System(
        _line_traces(),
        config=config,
        policy_factory=lambda channel_id: NoMitigationPolicy(),
        enable_abo=False,
    )
    result = system.run()
    assert len(system.memory.controllers) == 2
    assert result.dram_requests == 120
    assert len(result.per_channel) == 2
    assert [c.channel for c in result.per_channel] == [0, 1]
    assert sum(c.requests for c in result.per_channel) == 120
    assert all(c.requests > 0 for c in result.per_channel)
    assert result.activations == sum(c.activations for c in result.per_channel)


def test_multi_channel_rejects_single_policy_instance():
    config = small_test_config().with_organization(channels=2)
    with pytest.raises(ValueError, match="policy_factory"):
        System(_traces(), config=config, policy=NoMitigationPolicy())


def test_multi_channel_rfms_stay_per_channel():
    config = small_test_config().with_organization(channels=2)
    system = System(
        _line_traces(cores=2, n=200),
        config=config,
        policy_factory=lambda channel_id: TpracPolicy(tb_window=600.0),
        enable_abo=False,
    )
    result = system.run()
    assert result.rfm_total > 0
    assert result.rfm_total == sum(c.rfms for c in result.per_channel)
    # Both channels saw traffic, so both TB timers issued RFMs.
    assert all(c.rfms > 0 for c in result.per_channel)


def test_multi_channel_is_deterministic():
    config = small_test_config().with_organization(channels=2)

    def once():
        return System(
            _line_traces(),
            config=config,
            policy_factory=lambda channel_id: NoMitigationPolicy(),
            enable_abo=False,
        ).run()

    first, second = once(), once()
    assert first.ipcs == second.ipcs
    assert first.elapsed_ns == second.elapsed_ns
    assert [c.requests for c in first.per_channel] == [
        c.requests for c in second.per_channel
    ]


def test_single_channel_controller_alias_preserved():
    system = System(
        _traces(), config=small_test_config(), policy=NoMitigationPolicy(),
        enable_abo=False,
    )
    controller = system.memory.controllers[0]
    assert system.memory.enqueue == controller.enqueue
    assert system.memory.stats is controller.stats


