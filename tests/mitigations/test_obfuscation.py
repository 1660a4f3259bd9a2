"""Tests for the obfuscation policy and the per-bank RFM extension."""

import pytest

from repro.controller.controller import MemoryController
from repro.core.engine import Engine
from repro.cpu.system import System
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations import NoMitigationPolicy, TpracPolicy
from repro.mitigations.obfuscation import ObfuscationPolicy
from repro.mitigations.rfmpb import PerBankRfmPolicy
from repro.workloads.synthetic import homogeneous_traces


def test_random_rfms_injected_at_roughly_configured_rate():
    config = small_test_config()
    policy = ObfuscationPolicy(seed=3)
    mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
    ticks = 400
    mc.engine.run(until=ticks * config.timing.tREFI + 100)
    rate = policy.random_rfms_injected / ticks
    assert 0.4 < rate < 0.6
    assert mc.stats.rfm_count(RfmProvenance.RANDOM) == policy.random_rfms_injected


def test_injection_is_deterministic_per_seed():
    def count(seed):
        config = small_test_config()
        policy = ObfuscationPolicy(seed=seed)
        mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
        mc.engine.run(until=100 * config.timing.tREFI)
        return policy.random_rfms_injected

    assert count(7) == count(7)


class TestPerBankRfm:
    def test_rejects_non_positive_window(self):
        for window in (0.0, -1.0):
            with pytest.raises(ValueError, match="TB-Window must be positive"):
                PerBankRfmPolicy(tb_window=window)

    def test_rotates_over_banks(self):
        config = small_test_config()
        policy = PerBankRfmPolicy(tb_window=4000.0)
        mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
        mc.engine.run(until=8200.0)
        banks = [r.bank_id for r in mc.stats.rfm_records]
        # 4 banks, window/4 = 1000ns per firing: two full rotations.
        assert banks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_blocks_only_target_bank(self):
        config = small_test_config()
        policy = PerBankRfmPolicy(tb_window=4000.0)
        mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
        mc.engine.run(until=1100.0)   # first firing hits bank 0
        assert mc.channel.bank(0).ready_at > 0
        assert mc.channel.blocked_until == 0.0

    def test_mitigates_hottest_row_in_target_bank(self):
        config = small_test_config(nbo=10**6).with_prac(nbo=10**6)
        policy = PerBankRfmPolicy(tb_window=4000.0)
        mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
        bank = mc.channel.bank(0)
        bank.activate(7, 0.0)
        bank.activate(7, 1000.0 - 200.0)
        mc.engine.run(until=1100.0)
        assert bank.counter(7) == 0
        assert policy.mitigations_performed == 1

    def test_no_command_built_without_a_consumer(self):
        """With no sanitizer or recorder attached, a per-bank
        RFM builds no command record (the attached path is covered by
        the sanitizer's RFMpb test)."""
        config = small_test_config()
        policy = PerBankRfmPolicy(tb_window=4000.0)
        mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
        calls = []
        original = mc._log

        def counting_log(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        mc._log = counting_log  # type: ignore[method-assign]
        mc.engine.run(until=8200.0)
        assert calls == []
        assert len(mc.stats.rfm_records) == 8

    def test_per_bank_tb_rfms_cost_less_than_all_bank_ones(self):
        """Section 7.2: an RFMpb blocks one bank for tRFMpb instead of
        the channel for tRFMab, so TPRAC on RFMpb slows a workload less."""
        traces = homogeneous_traces("433.milc", cores=4, num_accesses=1_500)
        base = System(traces, policy=NoMitigationPolicy(), enable_abo=False).run()
        normalized = {
            name: System(traces, policy=policy, enable_abo=False).run().total_ipc
            / base.total_ipc
            for name, policy in (
                ("rfmab", TpracPolicy(tb_window=4000.0)),
                ("rfmpb", PerBankRfmPolicy(tb_window=4000.0)),
            )
        }
        assert normalized["rfmpb"] > normalized["rfmab"]
