"""Executable-Feinting validation: simulator vs analytical worst case."""

import pytest

from repro.analysis.safety import SafetyMonitor
from repro.attacks.feinting_sim import FeintingAttack


@pytest.mark.parametrize("pool_size", [4, 8, 16, 32])
def test_measured_peak_never_exceeds_analytical_bound(pool_size):
    result = FeintingAttack(pool_size=pool_size).run()
    assert result.within_bound, (
        f"simulated Feinting beat the analytical bound: "
        f"{result.target_peak} > {result.analytical_tmax}"
    )
    assert result.defense_held


def test_run_stops_once_the_attack_is_done(monkeypatch):
    from repro.attacks import feinting_sim

    engines = []

    class RecordingEngine(feinting_sim.Engine):
        def __init__(self):
            super().__init__()
            engines.append(self)

    monkeypatch.setattr(feinting_sim, "Engine", RecordingEngine)
    result = FeintingAttack(pool_size=8).run()
    assert result.within_bound
    # The attack ends within microseconds; the 500 ms horizon is a cap.
    assert engines[0].now < 1_000_000.0


def test_tprac_prevents_alerts_under_feinting():
    result = FeintingAttack(pool_size=16, nbo=200).run()
    assert result.defense_held
    assert result.target_peak < 200


def test_mitigations_scale_with_pool():
    small = FeintingAttack(pool_size=8).run()
    large = FeintingAttack(pool_size=32).run()
    assert large.mitigations > small.mitigations
    assert large.rounds_executed > small.rounds_executed


def test_longer_window_allows_higher_peak():
    tight = FeintingAttack(pool_size=16, tb_window=1200.0).run()
    loose = FeintingAttack(pool_size=16, tb_window=4800.0).run()
    assert loose.target_peak > tight.target_peak


def test_safety_monitor_integration():
    from repro.controller.controller import MemoryController
    from repro.controller.request import MemRequest
    from repro.core.engine import Engine
    from repro.dram.config import small_test_config
    from repro.mitigations.tprac import TpracPolicy
    from repro.attacks.probes import bank_address

    nbo = 64
    config = small_test_config(nbo=nbo).with_prac(nbo=nbo, abo_act=0)
    mc = MemoryController(
        Engine(), config, policy=TpracPolicy(tb_window=1500.0),
        enable_refresh=False,
    )
    monitor = SafetyMonitor(mc.channel, threshold=nbo)
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= 500:
            return
        row = state["n"] % 2 + 10
        state["n"] += 1
        mc.enqueue(MemRequest(phys_addr=bank_address(mc, 0, row), on_complete=issue))

    issue()
    mc.engine.run(until=100_000_000)
    assert monitor.safe, monitor.report()
    assert monitor.peak_count > 0
    assert monitor.margin > 0
    assert "SAFE" in monitor.report()


def test_safety_monitor_flags_undefended_hammering():
    from repro.controller.controller import MemoryController
    from repro.controller.request import MemRequest
    from repro.core.engine import Engine
    from repro.dram.config import small_test_config
    from repro.mitigations.base import NoMitigationPolicy
    from repro.attacks.probes import bank_address

    config = small_test_config(nbo=32)
    mc = MemoryController(
        Engine(), config, policy=NoMitigationPolicy(),
        enable_abo=False, enable_refresh=False,
    )
    monitor = SafetyMonitor(mc.channel, threshold=32)
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= 80:
            return
        row = 10 if state["n"] % 2 else 11
        state["n"] += 1
        mc.enqueue(MemRequest(phys_addr=bank_address(mc, 0, row), on_complete=issue))

    issue()
    mc.engine.run(until=100_000_000)
    assert not monitor.safe
    assert monitor.violations[0].count == 32
    assert "VIOLATIONS" in monitor.report()


def test_monitor_threshold_validated():
    from repro.dram.rank import Channel
    from repro.dram.config import small_test_config

    with pytest.raises(ValueError):
        SafetyMonitor(Channel(small_test_config()), threshold=0)
