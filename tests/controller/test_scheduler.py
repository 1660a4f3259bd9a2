"""Unit tests for the FR-FCFS request scheduler."""

import pytest

from repro.controller.request import MemRequest
from repro.controller.scheduler import HIT_CAP, BankQueueScheduler
from repro.dram.address import DramAddress
from repro.dram.bank import Bank
from repro.dram.config import small_test_config


def _req(row, arrive=0.0):
    request = MemRequest(phys_addr=0, arrive_time=arrive)
    request.addr = DramAddress(0, 0, 0, 0, row, 0)
    return request


@pytest.fixture
def bank():
    return Bank(small_test_config(), bank_id=0)


def test_fifo_when_no_open_row(bank):
    sched = BankQueueScheduler(num_banks=1)
    first, second = _req(1), _req(2)
    sched.enqueue(first, 0)
    sched.enqueue(second, 0)
    assert sched.pick(0, bank) is first
    assert sched.pick(0, bank) is second


def test_row_hit_preferred_over_older_conflict(bank):
    sched = BankQueueScheduler(num_banks=1)
    bank.activate(5, 0.0)
    older_conflict, hit = _req(1), _req(5)
    sched.enqueue(older_conflict, 0)
    sched.enqueue(hit, 0)
    assert sched.pick(0, bank) is hit


def test_hit_cap_forces_oldest_after_cap(bank):
    sched = BankQueueScheduler(num_banks=1)
    bank.activate(5, 0.0)
    conflict = _req(1)
    sched.enqueue(conflict, 0)
    for _ in range(HIT_CAP):
        sched.enqueue(_req(5), 0)
        picked = sched.pick(0, bank)
        assert picked.addr.row == 5
    # Cap reached: the next pick must serve the starving conflict.
    sched.enqueue(_req(5), 0)
    assert sched.pick(0, bank) is conflict


def test_head_hit_does_not_consume_cap(bank):
    sched = BankQueueScheduler(num_banks=1)
    bank.activate(5, 0.0)
    for _ in range(HIT_CAP + 1):
        sched.enqueue(_req(5), 0)
        assert sched.pick(0, bank).addr.row == 5
    # The head hits left the whole streak: a hit behind an older
    # conflict still wins.
    conflict, hit = _req(1), _req(5)
    sched.enqueue(conflict, 0)
    sched.enqueue(hit, 0)
    assert sched.pick(0, bank) is hit


def test_pick_empty_returns_none(bank):
    sched = BankQueueScheduler(num_banks=1)
    assert sched.pick(0, bank) is None


def test_pending_counts(bank):
    sched = BankQueueScheduler(num_banks=2)
    sched.enqueue(_req(1), 0)
    sched.enqueue(_req(1), 1)
    sched.enqueue(_req(2), 1)
    assert sched.pending() == 3
    assert sched.pending(1) == 2
    assert list(sched.banks_with_work()) == [0, 1]


def test_enqueue_requires_decoded_request():
    sched = BankQueueScheduler(num_banks=1)
    with pytest.raises(ValueError):
        sched.enqueue(MemRequest(phys_addr=0), 0)


def test_invalid_construction():
    with pytest.raises(ValueError):
        BankQueueScheduler(num_banks=0)


def test_banks_with_work_stays_sorted_through_churn(bank):
    sched = BankQueueScheduler(num_banks=8)
    for bank_id in (5, 1, 7, 3):
        sched.enqueue(_req(row=0), bank_id)
    assert list(sched.banks_with_work()) == [1, 3, 5, 7]
    sched.pick(3, bank)  # empties bank 3
    assert list(sched.banks_with_work()) == [1, 5, 7]
    sched.enqueue(_req(row=1), 0)
    assert list(sched.banks_with_work()) == [0, 1, 5, 7]
