"""Tests for the scorecard machinery (fast checks only)."""

from repro.experiments.scorecard import Scorecard, run


def test_scorecard_bookkeeping():
    card = Scorecard()
    card.add("a", "1", "1", True)
    card.add("b", "2", "3", False)
    assert not card.all_passed
    assert card.pass_count == 1
    table = card.format_table()
    assert "PASS" in table and "FAIL" in table
    assert "1/2 claims reproduced" in table


def test_quick_scorecard_without_perf():
    card = run(include_perf=False)
    assert card.all_passed, card.format_table()
    claims = [check.claim for check in card.checks]
    assert any("Fig7" in claim for claim in claims)
    assert any("Feinting" in claim for claim in claims)
    assert not any("slowdown" in claim for claim in claims)
    assert len(card.checks) == 8
