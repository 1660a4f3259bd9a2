"""Tests for the TB-Window solver."""

import pytest

from repro.analysis.feinting import feinting_tmax
from repro.analysis.tb_window import (
    required_tb_window,
    tb_window_for_nrh,
)
from repro.dram.config import ddr5_8000b

CONFIG = ddr5_8000b()


def test_solved_window_is_safe_and_maximal():
    nbo = 1024
    window = required_tb_window(CONFIG, nbo, with_reset=True)
    assert feinting_tmax(CONFIG, window, with_reset=True).tmax < nbo
    slightly_longer = window * 1.02
    assert feinting_tmax(CONFIG, slightly_longer, with_reset=True).tmax >= nbo


def test_nrh_1024_window_matches_paper_scale():
    """Paper: ~1.6 tREFI at N_RH=1024 (they keep margin; solver is exact)."""
    choice = tb_window_for_nrh(1024)
    assert 1.4 < choice.tb_window_trefi < 2.0
    assert choice.tmax < 1024


def test_window_shrinks_with_threshold():
    windows = [tb_window_for_nrh(n).tb_window for n in (128, 256, 512, 1024, 4096)]
    assert windows == sorted(windows)


def test_nrh_128_window_near_one_microsecond():
    """Paper Table 5: TB-RFMs every ~1 us at N_RH=128."""
    choice = tb_window_for_nrh(128)
    assert 700 < choice.tb_window < 1600


def test_no_reset_requires_shorter_window():
    with_reset = tb_window_for_nrh(512, with_reset=True)
    without = tb_window_for_nrh(512, with_reset=False)
    assert without.tb_window < with_reset.tb_window


def test_unachievable_threshold_raises():
    with pytest.raises(ValueError):
        required_tb_window(CONFIG, nbo=8, with_reset=True)
