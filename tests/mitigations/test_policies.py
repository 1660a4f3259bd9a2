"""Tests for the mitigation policies (ABO-Only, ACB-RFM, factory)."""

import pytest

from repro.attacks.probes import bank_address
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations import make_policy
from repro.mitigations.abo_only import AboOnlyPolicy
from repro.mitigations.acb_rfm import AcbRfmPolicy
from repro.mitigations.base import NoMitigationPolicy
from tests.prac.queue_state import peek


def _hammer(mc, bank, rows, count):
    state = {"n": 0}
    addrs = [bank_address(mc, bank, r) for r in rows]

    def issue(req=None):
        if state["n"] >= count:
            return
        addr = addrs[state["n"] % len(addrs)]
        state["n"] += 1
        mc.enqueue(MemRequest(phys_addr=addr, on_complete=issue))

    issue()
    mc.engine.run(until=100_000_000)


def test_factory_names():
    assert isinstance(make_policy("none"), NoMitigationPolicy)
    assert isinstance(make_policy("abo_only"), AboOnlyPolicy)
    assert isinstance(make_policy("abo_acb", bat=32), AcbRfmPolicy)
    with pytest.raises(ValueError):
        make_policy("magic")


def test_abo_only_mitigates_most_activated_row():
    config = small_test_config(nbo=8).with_prac(nbo=8, abo_act=0)
    mc = MemoryController(
        Engine(), config, policy=AboOnlyPolicy(), enable_refresh=False
    )
    _hammer(mc, bank=0, rows=[1, 2], count=20)
    records = mc.stats.rfm_records
    assert records, "expected at least one ABO RFM"
    assert records[0].provenance is RfmProvenance.ABO
    assert 0 in records[0].mitigated_rows
    assert records[0].mitigated_rows[0] in (1, 2)


def test_acb_rfm_fires_at_bat_threshold():
    config = small_test_config(nbo=1000).with_prac(nbo=1000)
    policy = AcbRfmPolicy(bat=16)
    mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
    _hammer(mc, bank=0, rows=[1, 2, 3, 4], count=40)
    assert policy.acb_rfms_requested >= 2
    assert mc.stats.rfm_count(RfmProvenance.ACB) >= 2
    # The ACB-RFMs prevented any ABO at this high N_BO.
    assert mc.stats.rfm_count(RfmProvenance.ABO) == 0


def test_acb_rfm_resets_bank_activation_count():
    config = small_test_config(nbo=1000)
    policy = AcbRfmPolicy(bat=16)
    mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
    _hammer(mc, bank=0, rows=[1, 2, 3, 4], count=20)
    assert mc.channel.bank(0).activations_since_rfm < 16


def test_bat_for_threshold_has_floor_of_16():
    assert AcbRfmPolicy.bat_for_threshold(16) == 16
    assert AcbRfmPolicy.bat_for_threshold(1024) == 512


def test_no_mitigation_policy_never_mitigates():
    config = small_test_config(nbo=8)
    policy = NoMitigationPolicy()
    mc = MemoryController(
        Engine(), config, policy=policy, enable_abo=False, enable_refresh=False
    )
    _hammer(mc, bank=0, rows=[1, 2], count=30)
    assert policy.mitigations_performed == 0
    assert mc.stats.rfm_count() == 0


def test_none_system_acts_arm_nothing():
    """The `none` baseline never pops a queue, so it installs none and
    no ACT observer: a run that activates rows arms no bank."""
    from repro.experiments.common import DesignPoint, build_system
    from repro.workloads.synthetic import homogeneous_traces

    traces = homogeneous_traces("433.milc", cores=2, num_accesses=300, seed=0)
    system = build_system(DesignPoint(design="none", nrh=1024), traces)
    system.run()
    controller = system.controller
    policy = controller.policy
    assert isinstance(policy, NoMitigationPolicy)
    assert sum(bank.stats.activations for bank in controller.channel) > 0
    assert policy.queues == [] and policy.armed == set()
    assert controller.stats.rfm_count() == 0


def test_counter_reset_clears_policy_queues():
    config = small_test_config(nbo=1000)
    policy = AboOnlyPolicy()
    mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
    _hammer(mc, bank=0, rows=[1, 2], count=6)
    assert peek(policy.queues[0]) is not None
    policy.on_counter_reset(mc, 0.0)
    assert peek(policy.queues[0]) is None
