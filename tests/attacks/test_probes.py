"""Tests for attacker primitives: probes, senders, spike classification."""

import pytest

from repro.attacks.probes import (
    SPIKE_THRESHOLD_NS,
    LatencyProbe,
    RowHammerSender,
    bank_address,
    is_rfm_spike,
)
from repro.controller.controller import MemoryController
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import ddr5_8000b, small_test_config
from repro.mitigations.base import NoMitigationPolicy


def _controller(config=None, enable_refresh=False):
    config = config or small_test_config()
    return MemoryController(
        Engine(), config, policy=NoMitigationPolicy(),
        enable_abo=False, enable_refresh=enable_refresh,
    )


def test_bank_address_targets_requested_bank_and_row():
    mc = _controller(ddr5_8000b())
    org = mc.config.organization
    assert org.ranks > 1
    for bank in range(org.banks_per_channel):
        addr = mc.mapping.decode(bank_address(mc, bank, row=7))
        assert addr.flat_bank(org) == bank
        assert addr.row == 7
    for bank in (-1, org.banks_per_channel, 1000):
        with pytest.raises(ValueError, match="out of range"):
            bank_address(mc, bank, row=7)


def test_same_row_probe_causes_no_activations_after_first():
    mc = _controller()
    probe = LatencyProbe(mc, bank=1)
    probe.start()
    mc.engine.run(until=5000.0)
    probe.stop()
    bank = mc.channel.bank(1)
    assert bank.stats.activations == 1      # only the first access opens
    assert len(probe.result.latencies) > 10
    assert probe.result.mean_latency < 100


def test_probe_rejects_an_out_of_range_bank_at_construction():
    mc = _controller()
    banks = mc.config.organization.banks_per_channel
    with pytest.raises(ValueError, match="out of range"):
        LatencyProbe(mc, bank=banks)


def test_probe_observes_rfm_blocking():
    mc = _controller()
    probe = LatencyProbe(mc, bank=1)
    probe.start()
    mc.engine.schedule(2000.0, lambda: mc.request_rfm(RfmProvenance.TB))
    mc.engine.run(until=6000.0)
    probe.stop()
    assert max(probe.result.latencies) >= mc.config.timing.tRFMab
    assert any(latency > SPIKE_THRESHOLD_NS for latency in probe.result.latencies)


def test_hammer_puts_exact_activations_on_target():
    mc = _controller()
    sender = RowHammerSender(mc, bank=0)
    done = []
    sender.hammer(row=5, target_acts=20, decoy_row=6, done=lambda: done.append(1))
    mc.engine.run(until=1_000_000)
    assert done == [1]
    assert mc.channel.bank(0).counter(5) == 20
    # The alternation ends on the target, so the decoy sits one behind;
    # crucially it never exceeds the target (no decoy-triggered Alert).
    assert mc.channel.bank(0).counter(6) == 19


def test_hammer_closes_off_target_row():
    mc = _controller()
    sender = RowHammerSender(mc, bank=0)
    sender.hammer(row=5, target_acts=4, decoy_row=6, close_row=99)
    mc.engine.run(until=1_000_000)
    assert mc.channel.bank(0).open_row == 99
    assert mc.channel.bank(0).counter(99) == 1


class TestSpikeClassifier:
    TIMING = ddr5_8000b().timing

    def test_below_threshold_is_not_a_spike(self):
        assert not is_rfm_spike(100.0, 1000.0, self.TIMING)

    def test_off_grid_spike_is_rfm(self):
        assert is_rfm_spike(400.0, 2000.0, self.TIMING)

    def test_on_grid_refresh_sized_spike_dismissed(self):
        done = self.TIMING.tREFI + self.TIMING.tRFC + 30.0
        assert not is_rfm_spike(self.TIMING.tRFC + 40.0, done, self.TIMING)

    def test_on_grid_oversized_spike_is_rfm(self):
        # RFM colliding with refresh: additive stall, still detected.
        done = self.TIMING.tREFI + self.TIMING.tRFC + 30.0
        combined = self.TIMING.tRFC + self.TIMING.tRFMab + 50.0
        assert is_rfm_spike(combined, done, self.TIMING)
