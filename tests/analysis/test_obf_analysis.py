"""Tests for the obfuscation-leakage analysis (Section 7.1)."""

import pytest

from repro.analysis.obfuscation_analysis import analyze, sweep_injection_rates


def test_no_injection_is_fully_distinguishable():
    leak = analyze(windows=16, inject_prob=0.0, signal_rfms=1)
    assert leak.total_variation == pytest.approx(1.0)
    assert leak.classifier_accuracy == pytest.approx(1.0)


def test_no_signal_is_indistinguishable():
    leak = analyze(windows=16, inject_prob=0.5, signal_rfms=0)
    assert leak.total_variation == pytest.approx(0.0)
    assert leak.classifier_accuracy == pytest.approx(0.5)


def test_injection_reduces_but_does_not_eliminate_leakage():
    """The paper's Section 7.1 observation."""
    no_defense = analyze(windows=64, inject_prob=0.0, signal_rfms=1)
    defended = analyze(windows=64, inject_prob=0.5, signal_rfms=1)
    assert defended.total_variation < no_defense.total_variation
    assert defended.total_variation > 0.0
    assert 0.5 < defended.classifier_accuracy < 1.0


def test_more_signal_rfms_leak_more():
    one = analyze(windows=64, inject_prob=0.5, signal_rfms=1)
    four = analyze(windows=64, inject_prob=0.5, signal_rfms=4)
    assert four.total_variation > one.total_variation


def test_longer_observation_at_fixed_signal_dilutes():
    short = analyze(windows=16, inject_prob=0.5, signal_rfms=1)
    long = analyze(windows=256, inject_prob=0.5, signal_rfms=1)
    assert long.total_variation < short.total_variation


def test_sweep_orders_by_rate():
    curve = sweep_injection_rates([0.0, 0.25, 0.5], windows=32)
    assert [c.inject_prob for c in curve] == [0.0, 0.25, 0.5]
    tvs = [c.total_variation for c in curve]
    assert tvs == sorted(tvs, reverse=True)


def test_validation():
    with pytest.raises(ValueError):
        analyze(windows=0)
    with pytest.raises(ValueError):
        analyze(signal_rfms=-1)
