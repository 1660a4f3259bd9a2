"""Integration tests: every experiment harness runs (scaled down) and
reproduces the paper's qualitative shape."""

import pytest

from repro.experiments import (
    fig3_latency,
    fig4_side_channel,
    fig5_key_sweep,
    fig7_security,
    fig9_defense,
    fig10_performance,
    table2_covert,
    table5_energy,
)
from repro.experiments.common import DesignPoint, build_system, default_workloads
from repro.workloads.synthetic import homogeneous_traces


SMALL = dict(requests_per_core=600)
WORKLOADS = ["433.milc", "401.bzip2", "453.povray"]


def test_fig3_spike_magnitude_scales_with_prac_level():
    result = fig3_latency.run(nbo=128, hammer_rounds=2, duration_ns=120_000)
    one = result.timelines["1 RFM/ABO"].mean_spike_latency()
    four = result.timelines["4 RFM/ABO"].mean_spike_latency()
    assert result.timelines["1 RFM/ABO"].abo_count >= 1
    assert four > 2 * one > 0
    assert result.timelines["No ABO"].abo_count == 0
    assert result.format_table()


def test_table2_count_channel_beats_activity_channel():
    result = table2_covert.run(
        nbo_values=(256,), activity_bits=4, count_symbols=3
    )
    activity = result.row("Activity-Based", 256)
    count = result.row("Activation-Count-Based", 256)
    assert activity.error_rate == 0.0
    assert count.error_rate == 0.0
    assert count.bitrate_kbps > activity.bitrate_kbps
    assert count.period_us > activity.period_us
    assert result.format_table()


def test_fig4_recovers_nibble_and_counts():
    result = fig4_side_channel.run(key_byte=0x50, encryptions=150)
    attack = result.attack
    assert attack.success
    assert attack.recovered_nibble == 0x5
    assert attack.rfm_times
    assert "recovered key nibble" in result.format_table()


def test_fig5_sweep_tracks_key():
    result = fig5_key_sweep.run(key_values=[0, 128, 240], encryptions=150)
    assert result.recovery_rate == 1.0
    assert result.format_table()


def test_fig7_matches_paper():
    result = fig7_security.run()
    assert result.tmax(1.0, with_reset=True) == 572
    assert result.tmax(1.0, with_reset=False) == 736
    assert result.format_table()


def test_fig9_defense_stops_leak():
    result = fig9_defense.run(key_values=[0, 160], encryptions=120)
    assert result.leak_rate_undefended == 1.0
    assert result.leak_rate_defended < 1.0
    assert result.format_table()


def test_fig10_ordering_tprac_pays_most():
    result = fig10_performance.run(workloads=WORKLOADS, **SMALL)
    tprac = result.geomean("tprac@1024")
    abo = result.geomean("abo_only@1024")
    acb = result.geomean("abo_acb@1024")
    assert tprac < acb <= abo * 1.001
    assert 0.90 < tprac < 1.0
    assert abo > 0.995
    assert result.format_table()


def test_table5_energy_grows_as_threshold_drops():
    result = table5_energy.run(
        nrh_values=(256, 1024), workloads=["433.milc"], requests_per_core=2500
    )
    assert result.by_nrh[256].total_pct > result.by_nrh[1024].total_pct
    assert result.by_nrh[1024].total_pct > 0
    assert result.format_table()


def test_build_system_rejects_unknown_design():
    traces = homogeneous_traces("453.povray", cores=1, num_accesses=10)
    with pytest.raises(ValueError):
        build_system(DesignPoint(design="magic", nrh=1024), traces)


def test_build_system_takes_any_registered_design_and_a_seed():
    from repro.config import SystemConfig
    from repro.mitigations import available
    from repro.mitigations.obfuscation import ObfuscationPolicy

    traces = homogeneous_traces("453.povray", cores=1, num_accesses=10)
    for name in available():
        system = build_system(DesignPoint(design=name, nrh=256), traces)
        assert system.controller.policy.name == name
    system = build_system(
        DesignPoint(design="obfuscation", nrh=256),
        traces,
        system=SystemConfig(channels=2),
        seed=5,
    )
    for channel, controller in enumerate(system.memory.controllers):
        expected = ObfuscationPolicy(seed=5 + 100_003 * channel)
        assert controller.policy._rng.random() == expected._rng.random()


def test_default_workloads_category_balanced():
    names = default_workloads()
    assert len(names) >= 10
