"""Small-scale tests for the remaining performance harnesses."""


from repro.cpu.trace import TraceRecord
from repro.dram.address import DramAddress, MopMapping
from repro.dram.config import ddr5_8000b
from repro.experiments import fig11_prac_levels, fig12_tref, fig13_nrh, fig14_reset
from repro.experiments.common import DesignPoint, build_system

TINY = dict(workloads=["433.milc", "453.povray"], requests_per_core=800)


def _hammer_trace(rows, reads, gap_insts=0):
    """``reads`` reads alternating over ``rows`` of bank 0, channel 0."""
    mapping = MopMapping(ddr5_8000b().organization)
    addresses = [
        mapping.encode(
            DramAddress(channel=0, rank=0, bank_group=0, bank=0, row=row, column=0)
        )
        for row in rows
    ]
    return [TraceRecord(gap_insts, addresses[i % len(rows)]) for i in range(reads)]


def test_fig11_flat_across_levels():
    # No design lets ABO-RFMs materialize, so the PRAC level never shows.
    result = fig11_prac_levels.run(prac_levels=(1, 2, 4), **TINY)
    for design in ("abo_only", "abo_acb", "tprac"):
        values = [result.geomean(level, design) for level in (1, 2, 4)]
        assert max(values) - min(values) < 0.01, design
    assert "PRAC-1" in result.format_table()


def test_prac_level_sets_the_abo_rfm_burst():
    """fig11's knob reaches the simulated system: under a two-row hammer
    every Alert is answered by one ABO-RFM per PRAC level.  (Benign
    workloads never raise an Alert, so fig11's own geomeans cannot
    show the level.)"""
    trace = _hammer_trace((1, 8), 4000, gap_insts=10)
    for level in (1, 2, 4):
        system = build_system(DesignPoint("abo_only", nrh=64, prac_level=level), [trace])
        result = system.run()
        alerts = system.controller.abo.alert_count
        assert alerts > 0, level
        assert result.rfm_by_provenance["abo"] == level * alerts, (level, alerts)


def test_fig12_tref_monotone():
    # More TREFs -> fewer TB-RFMs -> less slowdown.
    result = fig12_tref.run(tref_rates=(0.0, 0.25, 1.0), **TINY)
    assert result.geomean(0.0) <= result.geomean(0.25) + 0.003
    assert result.geomean(0.25) <= result.geomean(1.0) + 0.003
    assert result.geomean(1.0) > 0.985  # ~zero overhead at 1 TREF per tREFI
    assert result.slowdown_pct(1.0) <= result.slowdown_pct(0.0) + 0.3
    assert "TREF" in result.format_table()


def test_fig13_threshold_monotone():
    result = fig13_nrh.run(nrh_values=(256, 1024, 4096), **TINY)
    tprac = [result.slowdown_pct(nrh, "tprac") for nrh in (256, 1024, 4096)]
    assert tprac[0] > tprac[1] > tprac[2]
    for nrh in (256, 1024, 4096):
        assert result.slowdown_pct(nrh, "abo_only") < 1.0
    # Closing the channel costs TPRAC more than ABO+ACB.
    assert result.slowdown_pct(256, "tprac") >= result.slowdown_pct(256, "abo_acb")
    assert result.format_table()


def test_fig14_reset_allows_longer_window():
    result = fig14_reset.run(nrh_values=(256, 1024), **TINY)
    # Reset lowers TMAX, so it allows a window at least as long.
    for nrh in (256, 1024):
        assert result.windows[(nrh, True)] >= result.windows[(nrh, False)]
    # The longer window pays off at low N_RH; at 1024 the gap is small
    # (the paper's <1% at full length; short runs widen it a little).
    assert result.geomean(256, True) >= result.geomean(256, False) - 0.003
    assert abs(result.geomean(1024, True) - result.geomean(1024, False)) < 0.04
    # The simulated systems see the reset policy too: without the reset
    # the solved window is shorter, so the same run issues more
    # TB-RFMs (290 vs 254 at N_RH 256, 86 vs 64 at 1024).
    for nrh in (256, 1024):
        rfms = {
            with_reset: sum(row.rfms for row in result.by_point[(nrh, with_reset)])
            for with_reset in (True, False)
        }
        assert rfms[False] > rfms[True], (nrh, rfms)
    assert result.format_table()


def test_design_point_labels():
    assert DesignPoint(design="tprac", nrh=512).label() == "tprac@512"
    labelled = DesignPoint(design="tprac", nrh=512, tref_per_trefi=0.5).label()
    assert "tref0.5" in labelled


def test_none_baseline_ignores_nrh_and_prac_level():
    """The PRAC-without-ABO baseline is one run at every N_RH and PRAC
    level, even on a trace that asserts Alerts at the low thresholds."""
    # Two cores, each alternating two rows of bank 0.
    traces = [_hammer_trace(rows, 3000) for rows in ((1, 2), (3, 4))]
    outcomes = set()
    alerts = {}
    for nrh in (64, 128, 1024):
        for level in (1, 4):
            system = build_system(DesignPoint("none", nrh, prac_level=level), traces)
            result = system.run()
            assert result.rfm_total == 0
            outcomes.add(
                (tuple(result.ipcs), result.elapsed_ns, system.engine.events_fired)
            )
            alerts[nrh] = system.controller.abo.alert_count
    assert len(outcomes) == 1
    assert alerts[64] > alerts[128] > alerts[1024] == 0
