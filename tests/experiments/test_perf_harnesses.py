"""Small-scale tests for the remaining performance harnesses."""


from repro.experiments import fig11_prac_levels, fig12_tref, fig13_nrh, fig14_reset

TINY = dict(workloads=["433.milc", "453.povray"], requests_per_core=800)


def test_fig11_flat_across_levels():
    # No design lets ABO-RFMs materialize, so the PRAC level never shows.
    result = fig11_prac_levels.run(prac_levels=(1, 2, 4), **TINY)
    for design in ("abo_only", "abo_acb", "tprac"):
        values = [result.geomean(level, design) for level in (1, 2, 4)]
        assert max(values) - min(values) < 0.01, design
    assert "PRAC-1" in result.format_table()


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
    assert result.format_table()


def test_fig10_cache_none_is_byte_identical():
    # Spelling the new axes at their defaults must reproduce the
    # pre-hierarchy fig10 output byte for byte.
    from repro.config import SystemConfig
    from repro.experiments import fig10_performance

    small = dict(workloads=["433.milc"], requests_per_core=400)
    base = fig10_performance.run(**small)
    spelled = fig10_performance.run(
        system=SystemConfig(cache="none", interconnect="none"), **small
    )
    assert spelled.format_table() == base.format_table()
    for design, rows in base.matrix.items():
        for row, other in zip(rows, spelled.matrix[design]):
            assert other.normalized == row.normalized


def test_fig10_runs_behind_the_hierarchy():
    from repro.config import SystemConfig
    from repro.experiments import fig10_performance

    result = fig10_performance.run(
        workloads=["433.milc"],
        requests_per_core=400,
        system=SystemConfig(cache="l1l2", interconnect="fixed"),
    )
    for rows in result.matrix.values():
        for row in rows:
            assert row.normalized > 0.0


def test_design_point_labels():
    from repro.experiments.common import DesignPoint

    assert DesignPoint(design="tprac", nrh=512).label() == "tprac@512"
    labelled = DesignPoint(design="tprac", nrh=512, tref_per_trefi=0.5).label()
    assert "tref0.5" in labelled


def test_none_baseline_ignores_nrh_and_prac_level():
    """The PRAC-without-ABO baseline is one run at every N_RH and PRAC
    level, even on a trace that asserts Alerts at the low thresholds."""
    from repro.config import SystemConfig
    from repro.cpu.trace import TraceRecord
    from repro.dram.address import DramAddress
    from repro.dram.config import ddr5_8000b
    from repro.experiments.common import DesignPoint, build_system

    mapping = SystemConfig().make_mapping(ddr5_8000b().organization)

    def row_address(row):
        return mapping.encode(
            DramAddress(channel=0, rank=0, bank_group=0, bank=0, row=row, column=0)
        )

    # Two cores, each alternating two rows of bank 0.
    traces = [
        [TraceRecord(0, row_address(rows[i % 2])) for i in range(3000)]
        for rows in ((1, 2), (3, 4))
    ]
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
