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
    two = result.timelines["2 RFM/ABO"].mean_spike_latency()
    four = result.timelines["4 RFM/ABO"].mean_spike_latency()
    assert result.timelines["1 RFM/ABO"].abo_count >= 1
    assert 0 < one < two < four
    assert four > 2 * one
    assert result.timelines["No ABO"].abo_count == 0
    assert result.format_table()


def test_table2_count_channel_beats_activity_channel():
    result = table2_covert.run(
        nbo_values=(256, 512), activity_bits=4, count_symbols=3
    )
    rows = {(row.channel, row.nbo): row for row in result.rows}
    activity = rows["Activity-Based", 256]
    count = rows["Activation-Count-Based", 256]
    assert all(row.error_rate == 0.0 for row in result.rows)
    assert count.bitrate_kbps > 3 * activity.bitrate_kbps
    assert count.period_us > activity.period_us
    # Doubling N_BO roughly halves both channels' bitrate.
    for channel in ("Activity-Based", "Activation-Count-Based"):
        ratio = (
            rows[channel, 256].bitrate_kbps
            / rows[channel, 512].bitrate_kbps
        )
        assert 1.6 < ratio < 2.4, channel
    assert result.format_table()


def test_fig4_recovers_nibble_and_counts():
    result = fig4_side_channel.run(key_byte=0x50, encryptions=150)
    attack = result.attack
    assert attack.success
    assert attack.recovered_nibble == 0x5
    assert attack.trigger_row == 0x5
    assert attack.rfm_times
    # The victim's hot row gets about one activation per encryption
    # plus background, and the attacker's probes push it over N_BO.
    assert 0.9 * 150 <= max(attack.victim_histogram.values()) <= 1.5 * 150
    assert 0 < attack.attacker_acts_on_trigger < 256
    assert "recovered key nibble" in result.format_table()


def test_fig5_sweep_tracks_key():
    result = fig5_key_sweep.run(key_values=[0, 128, 240], encryptions=150)
    assert result.recovery_rate == 1.0
    # The trigger row moves monotonically with the key nibble.
    assert [attack.trigger_row for attack in result.results] == [0, 8, 15]
    assert result.format_table()


def test_fig7_matches_paper():
    result = fig7_security.run()
    assert result.tmax(1.0, with_reset=True) == 572
    assert result.tmax(1.0, with_reset=False) == 736
    assert result.format_table()


def test_fig9_defense_stops_leak():
    result = fig9_defense.run(key_values=[0, 160], encryptions=120)
    assert result.leak_rate_undefended == 1.0
    assert result.leak_rate_defended <= 1 / 3
    # Under TPRAC the attacker still sees RFMs, all timing-based.
    for attack in result.with_defense.results:
        assert attack.rfm_times
    assert result.format_table()


def test_fig10_ordering_tprac_pays_most():
    result = fig10_performance.run(workloads=WORKLOADS, **SMALL)
    tprac = result.geomean("tprac@1024")
    abo = result.geomean("abo_only@1024")
    acb = result.geomean("abo_acb@1024")
    assert tprac < acb <= abo * 1.001
    assert 0.90 < tprac < 1.0
    assert abo > 0.995
    # TPRAC's slowdown sits in the paper's band (3.4% mean, 8.3% worst).
    assert 0.5 <= result.slowdown_pct("tprac@1024") <= 9.0
    assert min(row.normalized for row in result.matrix["tprac@1024"]) > 0.90
    assert result.format_table()


def test_table5_energy_grows_as_threshold_drops():
    result = table5_energy.run(
        nrh_values=(256, 1024, 4096), workloads=["433.milc"], requests_per_core=2500
    )
    total = [result.by_nrh[nrh].total_pct for nrh in (256, 1024, 4096)]
    assert total[0] > total[1] > total[2] >= 0.0
    assert total[1] > 0
    assert result.by_nrh[256].mitigation_pct > 0
    assert result.format_table()


def test_build_system_rejects_unknown_design():
    traces = homogeneous_traces("453.povray", cores=1, num_accesses=10)
    with pytest.raises(ValueError):
        build_system(DesignPoint(design="magic", nrh=1024), traces)


def test_build_system_takes_any_registered_design_and_a_seed():
    from repro.mitigations import available
    from repro.mitigations.obfuscation import ObfuscationPolicy

    traces = homogeneous_traces("453.povray", cores=1, num_accesses=10)
    for name in available():
        system = build_system(DesignPoint(design=name, nrh=256), traces)
        assert system.controller.policy.name == name
    system = build_system(DesignPoint(design="obfuscation", nrh=256), traces, seed=5)
    expected = ObfuscationPolicy(seed=5)
    draws = [system.controller.policy._rng.random() for _ in range(4)]
    assert draws == [expected._rng.random() for _ in range(4)]


def test_default_workloads_category_balanced():
    names = default_workloads()
    assert len(names) >= 10
