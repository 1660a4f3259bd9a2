"""Tests for the Feinting worst-case analysis (paper Figure 7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.feinting import (
    acts_per_tb_window,
    attack_rounds,
    feinting_target_acts,
    feinting_tmax,
    max_acts_per_trefw,
    optimal_r1_with_reset,
    tmax_sweep,
    usable_window_time,
)
from repro.dram.config import ddr5_8000b

CONFIG = ddr5_8000b()
TREFI = CONFIG.timing.tREFI


class TestPaperFigure7Values:
    """The calibrated model reproduces the paper's numbers exactly (at 4
    tREFI within one activation of rounding)."""

    @pytest.mark.parametrize(
        "trefi_multiple, expected",
        [(0.25, 105), (1.0, 572), (4.0, 2138)],
    )
    def test_with_reset(self, trefi_multiple, expected):
        result = feinting_tmax(CONFIG, trefi_multiple * TREFI, with_reset=True)
        assert abs(result.tmax - expected) <= (1 if trefi_multiple == 4.0 else 0)

    @pytest.mark.parametrize(
        "trefi_multiple, expected",
        [(0.25, 118), (1.0, 736), (4.0, 3220)],
    )
    def test_without_reset(self, trefi_multiple, expected):
        result = feinting_tmax(CONFIG, trefi_multiple * TREFI, with_reset=False)
        assert abs(result.tmax - expected) <= (1 if trefi_multiple == 4.0 else 0)


def test_alternative_strategies_never_beat_feinting():
    """Section 4.2.3: the equal and early-aggressive activation patterns
    reach fewer target activations than the Feinting pattern."""
    acts = acts_per_tb_window(CONFIG, TREFI)
    feinting = feinting_target_acts(8192, acts)
    # Equal activations forever: mitigated rows keep soaking acts, so
    # the target gets at most about two windows' worth.
    equal = 2 * acts
    # Early-aggressive: the target is always the queue's top entry, so
    # it is mitigated every window: at most one window of acts.
    aggressive = acts
    assert feinting > equal
    assert feinting > 5 * aggressive


def test_acts_per_window_at_one_trefi():
    # (3900 - 410 - 350) / 52 = 60 activations.
    assert acts_per_tb_window(CONFIG, TREFI) == 60


def test_usable_window_rejects_degenerate_windows():
    with pytest.raises(ValueError):
        usable_window_time(CONFIG, 300.0)


def test_max_acts_per_trefw_near_550k():
    assert 450_000 < max_acts_per_trefw(CONFIG, TREFI) < 560_000


def test_optimal_r1_with_reset_matches_paper_scale():
    # Paper: ~8192 intervals fit in tREFW at 1-tREFI windows.
    r1 = optimal_r1_with_reset(CONFIG, TREFI)
    assert 7000 < r1 < 9000


def test_no_reset_tmax_dominates_reset():
    for multiple in (0.25, 0.5, 1.0, 2.0, 4.0):
        window = multiple * TREFI
        with_reset = feinting_tmax(CONFIG, window, with_reset=True).tmax
        without = feinting_tmax(CONFIG, window, with_reset=False).tmax
        assert without >= with_reset


def test_tmax_monotone_in_window():
    values = [
        feinting_tmax(CONFIG, m * TREFI, with_reset=True).tmax
        for m in (0.25, 0.5, 1.0, 2.0, 4.0)
    ]
    assert values == sorted(values)


def test_attack_rounds_terminates_and_validates():
    assert attack_rounds(1, 10) == 1 + 0 + 1 or attack_rounds(1, 10) >= 1
    with pytest.raises(ValueError):
        attack_rounds(0, 10)
    with pytest.raises(ValueError):
        attack_rounds(10, 0)


def test_figure8_example_matches_paper():
    """The paper's toy example (Figure 8): 40 acts/window, 4-row pool.

    Row T ends the final epoch at 83 activations in the figure; the
    recurrence gives the same: with a pool this small the target gets
    about one activation per window across ~(pool*epochs) rounds plus
    the whole final window."""
    assert feinting_target_acts(4, 40) == 83


def test_sweep_returns_both_regimes_ordered():
    sweep = tmax_sweep(CONFIG, (0.5, 1.0))
    assert len(sweep["with_reset"]) == 2
    assert sweep["with_reset"][0].tb_window_trefi == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(
    r1=st.integers(min_value=2, max_value=5000),
    acts=st.integers(min_value=2, max_value=500),
)
def test_target_acts_monotone_in_pool_size(r1, acts):
    """More decoys never hurt the attacker (Feinting property)."""
    assert feinting_target_acts(r1 + 1, acts) >= feinting_target_acts(r1, acts)


@settings(max_examples=60, deadline=None)
@given(
    r1=st.integers(min_value=1, max_value=3000),
    acts=st.integers(min_value=2, max_value=400),
)
def test_target_acts_at_least_one_window(r1, acts):
    assert feinting_target_acts(r1, acts) >= acts
