"""Unit tests for Bank state and PRAC counters."""

import pytest

from repro.dram.bank import Bank
from repro.dram.config import small_test_config


@pytest.fixture
def bank():
    return Bank(small_test_config(), bank_id=0)


def test_activate_opens_row_and_counts(bank):
    count = bank.activate(5, time=100.0)
    assert count == 1
    assert bank.open_row == 5
    assert bank.counter(5) == 1
    assert bank.ready_at == 100.0 + bank.config.timing.tRC


def test_counters_accumulate_per_row(bank):
    for _ in range(3):
        bank.activate(7, time=0.0)
    bank.activate(8, time=0.0)
    assert bank.counter(7) == 3
    assert bank.counter(8) == 1
    assert bank.counter(9) == 0


def test_activate_out_of_range_row_rejected(bank):
    with pytest.raises(ValueError):
        bank.activate(bank.config.organization.rows_per_bank, time=0.0)


def test_precharge_closes_row(bank):
    bank.activate(3, time=0.0)
    bank.precharge(time=50.0)
    assert bank.open_row is None
    assert bank.precharge_done_at == 50.0 + bank.config.timing.tRP


def test_mitigate_resets_counter_and_counts(bank):
    for _ in range(5):
        bank.activate(4, 0.0)
    bank.mitigate(4)
    assert bank.counter(4) == 0
    assert bank.stats.mitigations == 1


def test_reset_all_counters(bank):
    bank.activate(1, 0.0)
    bank.activate(2, 0.0)
    bank.reset_all_counters()
    assert bank.counter(1) == 0 and bank.counter(2) == 0


def test_activation_observers_fire_with_count(bank):
    seen = []
    bank.on_activate(lambda b, row, count: seen.append((row, count)))
    bank.activate(9, 0.0)
    bank.activate(9, 0.0)
    assert seen == [(9, 1), (9, 2)]


def test_activations_since_rfm_accumulates(bank):
    bank.activate(1, 0.0)
    bank.activate(2, 0.0)
    assert bank.activations_since_rfm == 2
