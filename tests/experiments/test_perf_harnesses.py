"""Small-scale tests for the remaining performance harnesses."""


from repro.experiments import fig11_prac_levels, fig12_tref, fig13_nrh, fig14_reset

TINY = dict(workloads=["433.milc", "453.povray"], requests_per_core=800)


def test_fig11_flat_across_levels():
    result = fig11_prac_levels.run(prac_levels=(1, 4), **TINY)
    for design in ("abo_only", "tprac"):
        one = result.geomean(1, design)
        four = result.geomean(4, design)
        assert abs(one - four) < 0.02
    assert "PRAC-1" in result.format_table()


def test_fig12_tref_monotone():
    result = fig12_tref.run(tref_rates=(0.0, 1.0), **TINY)
    assert result.geomean(1.0) >= result.geomean(0.0) - 0.003
    assert result.slowdown_pct(1.0) <= result.slowdown_pct(0.0) + 0.3
    assert "TREF" in result.format_table()


def test_fig13_threshold_monotone():
    result = fig13_nrh.run(nrh_values=(256, 2048), **TINY)
    assert result.slowdown_pct(256, "tprac") > result.slowdown_pct(2048, "tprac")
    assert result.slowdown_pct(2048, "abo_only") < 1.0
    assert result.format_table()


def test_fig14_reset_allows_longer_window():
    result = fig14_reset.run(nrh_values=(512,), **TINY)
    assert result.windows[(512, True)] >= result.windows[(512, False)]
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
