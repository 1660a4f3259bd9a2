"""Integration-level tests for the memory controller."""

import pytest

from repro.attacks.probes import bank_address
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.address import DramAddress
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations.abo_only import AboOnlyPolicy
from repro.mitigations.base import NoMitigationPolicy


def _controller(engine=None, config=None, **kwargs):
    engine = engine or Engine()
    config = config or small_test_config()
    kwargs.setdefault("policy", NoMitigationPolicy())
    kwargs.setdefault("enable_refresh", False)
    return MemoryController(engine, config, **kwargs)


def _run_request(controller, phys_addr, is_write=False):
    done = []
    controller.enqueue(
        MemRequest(
            phys_addr=phys_addr,
            is_write=is_write,
            on_complete=lambda r: done.append(r),
        )
    )
    controller.engine.run(until=controller.engine.now + 1_000_000)
    assert len(done) == 1
    return done[0]


def test_request_completion_and_latency():
    mc = _controller()
    request = _run_request(mc, 0)
    timing = mc.config.timing
    expected = timing.tRCD + timing.tCL + timing.tBL
    assert request.latency == pytest.approx(expected)


def test_row_hit_is_faster_than_miss():
    mc = _controller()
    first = _run_request(mc, 0)
    second = _run_request(mc, 64)   # same MOP row, next column
    assert second.latency < first.latency


def test_row_conflict_pays_precharge():
    mc = _controller()
    _run_request(mc, 0)
    conflict_addr = mc.mapping.encode(DramAddress(0, 0, 0, 0, 5, 0))
    conflict = _run_request(mc, conflict_addr)
    assert conflict.latency > _run_request(mc, conflict_addr + 64).latency
    assert mc.stats.row_conflicts >= 1


def test_activation_counters_increment_via_requests():
    mc = _controller()
    row3 = mc.mapping.encode(DramAddress(0, 0, 0, 0, 3, 0))
    row4 = mc.mapping.encode(DramAddress(0, 0, 0, 0, 4, 0))
    for _ in range(3):
        _run_request(mc, row3)
        _run_request(mc, row4)
    assert mc.channel.bank(0).counter(3) == 3
    assert mc.channel.bank(0).counter(4) == 3


def test_abo_triggers_rfm_and_mitigates():
    config = small_test_config(nbo=8).with_prac(nbo=8, abo_act=0)
    mc = _controller(config=config, policy=AboOnlyPolicy())
    a = bank_address(mc, 0, 10)
    b = bank_address(mc, 0, 11)
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= 40:
            return
        state["n"] += 1
        mc.enqueue(MemRequest(phys_addr=a if state["n"] % 2 else b, on_complete=issue))

    issue()
    mc.engine.run(until=50_000_000)
    assert mc.abo.alert_count >= 1
    assert mc.stats.rfm_count(RfmProvenance.ABO) >= 1
    # The alerted row was mitigated: its counter dropped back.
    assert mc.channel.bank(0).counter(10) < 8


def test_rfm_blocks_subsequent_requests():
    mc = _controller()
    mc.request_rfm(RfmProvenance.TB)
    request = _run_request(mc, 0)
    # Issued behind the RFM: latency includes the tRFMab block.
    assert request.latency >= mc.config.timing.tRFMab


def test_rfm_burst_count_respected():
    mc = _controller()
    mc.request_rfm(RfmProvenance.TB, count=3)
    mc.engine.run(until=10_000)
    records = mc.stats.rfm_records
    assert len(records) == 3
    gaps = [b.time - a.time for a, b in zip(records, records[1:])]
    assert all(g == pytest.approx(mc.config.timing.tRFMab) for g in gaps)


def test_rfm_burst_hook_may_not_schedule_a_wake():
    # After a proactive burst the controller fills its empty wake slot
    # directly; a policy asking for a wake from mitigate_on_rfm would
    # have it orphaned, so the controller fails loudly instead.
    class Chaining(NoMitigationPolicy):
        def mitigate_on_rfm(self, controller, time, provenance):
            controller.request_rfm(RfmProvenance.TB)
            return {}

    mc = _controller(policy=Chaining())
    mc.request_rfm(RfmProvenance.TB)
    with pytest.raises(AssertionError, match="scheduled a wake"):
        mc.engine.run(until=10_000)


def test_refresh_window_counter_reset():
    config = small_test_config()
    engine = Engine()
    mc = MemoryController(
        engine, config, policy=NoMitigationPolicy(), enable_refresh=True
    )
    row = bank_address(mc, 0, 1)
    _run_request(mc, row)
    assert mc.channel.bank(0).counter(1) == 1
    engine.run(until=config.timing.tREFW + 1000)
    assert mc.channel.bank(0).counter(1) == 0


def test_no_reset_policy_preserves_counters():
    config = small_test_config().with_prac(reset_on_refresh=False)
    engine = Engine()
    mc = MemoryController(
        engine, config, policy=NoMitigationPolicy(), enable_refresh=True
    )
    row = bank_address(mc, 0, 1)
    _run_request(mc, row)
    engine.run(until=config.timing.tREFW + 1000)
    assert mc.channel.bank(0).counter(1) == 1


def test_enable_abo_false_suppresses_rfms():
    config = small_test_config(nbo=4).with_prac(nbo=4, abo_act=0)
    mc = _controller(config=config, policy=AboOnlyPolicy(), enable_abo=False)
    a = bank_address(mc, 0, 10)
    b = bank_address(mc, 0, 11)
    for _ in range(6):
        _run_request(mc, a)
        _run_request(mc, b)
    assert mc.stats.rfm_count() == 0


def test_write_requests_recorded():
    mc = _controller()
    _run_request(mc, 0, is_write=True)
    assert mc.stats.writes == 1
    assert mc.channel.bank(0).stats.writes == 1


def test_banks_progress_in_parallel():
    """Two banks should overlap; same-bank requests serialize."""
    mc = _controller()
    same_bank = [bank_address(mc, 0, r) for r in (1, 2)]
    diff_bank = [bank_address(mc, 0, 1), bank_address(mc, 1, 1)]

    def run_pair(addrs):
        engine = Engine()
        controller = MemoryController(
            engine, small_test_config(), policy=NoMitigationPolicy(),
            enable_refresh=False,
        )
        done = []
        for addr in addrs:
            controller.enqueue(
                MemRequest(phys_addr=addr, on_complete=lambda r: done.append(r))
            )
        engine.run(until=100_000)
        return max(r.done_time for r in done)

    assert run_pair(diff_bank) < run_pair(same_bank)
