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


def test_single_channel_controller_alias_preserved():
    system = System(
        _traces(), config=small_test_config(), policy=NoMitigationPolicy(),
        enable_abo=False,
    )
    # Every core issues into the system's one controller.
    assert all(core.memory is system.controller for core in system.cores)
    result = system.run()
    assert result.dram_requests == system.controller.stats.requests_served


def test_rfm_count_includes_per_bank_rfms():
    """RFMpb TB-RFMs count too: the campaign's rfmpb perf trial."""
    from repro.campaigns.scenario import Scenario
    from repro.mitigations import policy_factory

    config = Scenario(attack="perf", mitigation="rfmpb").dram_config()
    traces = homogeneous_traces("433.milc", cores=2, num_accesses=600, seed=0)
    system = System(traces, config=config, policy=policy_factory("rfmpb", config))
    result = system.run()
    assert system.controller.stats.rfm_count() == result.rfm_total > 0


