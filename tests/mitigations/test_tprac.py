"""Tests for the TPRAC policy: TB-RFMs, TREF co-design, security."""

import pytest

from repro.attacks.probes import bank_address
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations.tprac import TpracPolicy


def _build(tb_window=1000.0, config=None, **mc_kwargs):
    config = config or small_test_config()
    policy = TpracPolicy(tb_window=tb_window)
    mc_kwargs.setdefault("enable_refresh", False)
    mc = MemoryController(Engine(), config, policy=policy, **mc_kwargs)
    return mc, policy


def test_rejects_non_positive_window():
    for window in (0.0, -1.0):
        with pytest.raises(ValueError, match="TB-Window must be positive"):
            TpracPolicy(tb_window=window)


def test_tb_rfms_fire_periodically_without_activity():
    mc, policy = _build(tb_window=1000.0)
    mc.engine.run(until=10_500)
    records = mc.stats.rfm_records
    assert len(records) == 10
    assert all(r.provenance is RfmProvenance.TB for r in records)
    gaps = [b.time - a.time for a, b in zip(records, records[1:])]
    assert all(g == pytest.approx(1000.0, abs=400) for g in gaps)


def test_rfms_are_activity_independent():
    """Same RFM schedule with and without memory traffic (the defense)."""
    mc_idle, _ = _build(tb_window=2000.0)
    mc_idle.engine.run(until=20_000)
    idle_times = [r.time for r in mc_idle.stats.rfm_records]

    mc_busy, _ = _build(tb_window=2000.0)
    addr = bank_address(mc_busy, 0, 1)
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= 100:
            return
        state["n"] += 1
        mc_busy.enqueue(MemRequest(phys_addr=addr, on_complete=issue))

    issue()
    mc_busy.engine.run(until=20_000)
    busy_times = [r.time for r in mc_busy.stats.rfm_records]
    assert busy_times == pytest.approx(idle_times)


def test_tb_rfm_mitigates_hottest_row():
    config = small_test_config(nbo=1_000_000).with_prac(nbo=1_000_000)
    mc, policy = _build(tb_window=50_000.0, config=config)
    hot = bank_address(mc, 0, 5)
    cold = bank_address(mc, 0, 6)
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= 30:
            return
        state["n"] += 1
        # Rows alternate so every access activates; row 5 is "hot" by
        # getting the extra odd access.
        mc.enqueue(MemRequest(phys_addr=hot if state["n"] % 2 else cold, on_complete=issue))

    issue()
    mc.engine.run(until=60_000)
    rfm = mc.stats.rfm_records[0]
    assert rfm.mitigated_rows.get(0) == 5
    assert mc.channel.bank(0).counter(5) == 0


def test_tref_skips_next_tb_rfm():
    config = small_test_config()
    policy = TpracPolicy(tb_window=config.timing.tREFI)
    mc = MemoryController(
        Engine(), config, policy=policy, enable_refresh=True, tref_per_trefi=1.0
    )
    mc.engine.run(until=10 * config.timing.tREFI + 100)
    # With one TREF per tREFI and the window at 1 tREFI, every TB-RFM
    # is skipped: zero channel-blocking RFMs.
    assert policy.tb_rfms_skipped >= 8
    assert mc.stats.rfm_count(RfmProvenance.TB) == 0


def test_tref_mitigates_from_queue():
    config = small_test_config(nbo=1_000_000).with_prac(nbo=1_000_000)
    policy = TpracPolicy(tb_window=4.0 * config.timing.tREFI)
    mc = MemoryController(
        Engine(), config, policy=policy, enable_refresh=True, tref_per_trefi=1.0
    )
    addr_a = bank_address(mc, 0, 1)
    addr_b = bank_address(mc, 0, 2)
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= 10:
            return
        state["n"] += 1
        mc.enqueue(MemRequest(phys_addr=addr_a if state["n"] % 2 else addr_b, on_complete=issue))

    issue()
    mc.engine.run(until=2 * config.timing.tREFI)
    assert policy.mitigations_performed >= 1


def test_tprac_prevents_abo_under_hammering():
    """End-to-end security: TB-RFMs keep counters below N_BO."""
    nbo = 64
    config = small_test_config(nbo=nbo).with_prac(nbo=nbo, abo_act=0)
    # Window sized so at most ~nbo/2 activations fit between TB-RFMs.
    window = (nbo // 2) * 70.0
    mc, policy = _build(tb_window=window, config=config)
    a = bank_address(mc, 0, 10)
    b = bank_address(mc, 0, 11)
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= 600:
            return
        state["n"] += 1
        mc.enqueue(MemRequest(phys_addr=a if state["n"] % 2 else b, on_complete=issue))

    issue()
    mc.engine.run(until=100_000_000)
    assert mc.abo.alert_count == 0
    assert mc.stats.rfm_count(RfmProvenance.ABO) == 0
    assert mc.stats.rfm_count(RfmProvenance.TB) > 0
