"""Tests for the energy model (Table 5 machinery)."""

import pytest

from repro.analysis.energy import EnergyBreakdown, EnergyModel
from repro.dram.config import ddr5_8000b


@pytest.fixture
def model():
    return EnergyModel(ddr5_8000b())


def test_from_counts_component_accounting(model):
    breakdown = model.from_counts(
        activations=100, reads=50, writes=50, refreshes=2, mitigations=3,
        elapsed_ns=1000.0,
    )
    p = model.params
    banks = model.config.organization.banks_per_channel
    assert breakdown.activation_pj == pytest.approx(100 * p.act_pre_pj)
    assert breakdown.column_pj == pytest.approx(50 * p.rd_pj + 50 * p.wr_pj)
    assert breakdown.refresh_pj == pytest.approx(2 * banks * p.ref_per_bank_pj)
    assert breakdown.mitigation_pj == pytest.approx(
        3 * p.mitigation_acts * p.act_pre_pj
    )
    assert breakdown.total_pj > 0


def test_overhead_split_sums_to_total(model):
    base = model.from_counts(100, 50, 50, 2, 0, 1000.0)
    with_rfms = model.from_counts(100, 50, 50, 2, 5, 1100.0)
    overhead = with_rfms.overhead_vs(base)
    expected_total = (with_rfms.total_pj - base.total_pj) / base.total_pj * 100
    assert overhead.total_pct == pytest.approx(expected_total)
    assert overhead.mitigation_pct > 0
    assert overhead.non_mitigation_pct > 0


def test_overhead_against_zero_baseline_raises(model):
    empty = EnergyBreakdown()
    with pytest.raises(ValueError):
        model.from_counts(1, 1, 0, 0, 0, 1.0).overhead_vs(empty)


def test_more_rfms_cost_more_energy(model):
    low = model.from_counts(100, 50, 50, 2, 1, 1000.0)
    high = model.from_counts(100, 50, 50, 2, 10, 1000.0)
    assert high.total_pj > low.total_pj


def test_longer_execution_costs_background_energy(model):
    short = model.from_counts(100, 50, 50, 2, 0, 1000.0)
    long = model.from_counts(100, 50, 50, 2, 0, 2000.0)
    assert long.background_pj == pytest.approx(2 * short.background_pj)
