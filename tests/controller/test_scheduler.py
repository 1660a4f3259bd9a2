"""Unit tests for the registered request schedulers."""

import pytest

from repro.controller.request import MemRequest
from repro.controller.scheduler import (
    SCHEDULERS,
    FcfsScheduler,
    FrFcfsCapScheduler,
    FrFcfsScheduler,
)
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
    sched = FrFcfsScheduler(num_banks=1)
    first, second = _req(1), _req(2)
    sched.enqueue(first, 0)
    sched.enqueue(second, 0)
    assert sched.pick(0, bank) is first
    assert sched.pick(0, bank) is second


def test_row_hit_preferred_over_older_conflict(bank):
    sched = FrFcfsScheduler(num_banks=1)
    bank.activate(5, 0.0)
    older_conflict, hit = _req(1), _req(5)
    sched.enqueue(older_conflict, 0)
    sched.enqueue(hit, 0)
    assert sched.pick(0, bank) is hit


def test_hit_cap_forces_oldest_after_cap(bank):
    sched = FrFcfsScheduler(num_banks=1, cap=2)
    bank.activate(5, 0.0)
    conflict = _req(1)
    sched.enqueue(conflict, 0)
    for _ in range(2):
        sched.enqueue(_req(5), 0)
        picked = sched.pick(0, bank)
        assert picked.addr.row == 5
    # Cap reached: the next pick must serve the starving conflict.
    sched.enqueue(_req(5), 0)
    assert sched.pick(0, bank) is conflict


def test_head_hit_does_not_consume_cap(bank):
    sched = FrFcfsScheduler(num_banks=1, cap=1)
    bank.activate(5, 0.0)
    for _ in range(5):
        sched.enqueue(_req(5), 0)
        assert sched.pick(0, bank).addr.row == 5


def test_pick_empty_returns_none(bank):
    sched = FrFcfsScheduler(num_banks=1)
    assert sched.pick(0, bank) is None


def test_pending_counts(bank):
    sched = FrFcfsScheduler(num_banks=2)
    sched.enqueue(_req(1), 0)
    sched.enqueue(_req(1), 1)
    sched.enqueue(_req(2), 1)
    assert sched.pending() == 3
    assert sched.pending(1) == 2
    assert list(sched.banks_with_work()) == [0, 1]


def test_enqueue_requires_decoded_request():
    sched = FrFcfsScheduler(num_banks=1)
    with pytest.raises(ValueError):
        sched.enqueue(MemRequest(phys_addr=0), 0)


def test_invalid_construction():
    with pytest.raises(ValueError):
        FrFcfsScheduler(num_banks=0)
    with pytest.raises(ValueError):
        FrFcfsScheduler(num_banks=1, cap=0)


def test_banks_with_work_stays_sorted_through_churn(bank):
    sched = FrFcfsScheduler(num_banks=8)
    for bank_id in (5, 1, 7, 3):
        sched.enqueue(_req(row=0), bank_id)
    assert list(sched.banks_with_work()) == [1, 3, 5, 7]
    sched.pick(3, bank)  # empties bank 3
    assert list(sched.banks_with_work()) == [1, 5, 7]
    sched.enqueue(_req(row=1), 0)
    assert list(sched.banks_with_work()) == [0, 1, 5, 7]


# ----------------------------------------------------------------------
# The scheduler registry
# ----------------------------------------------------------------------
def test_registry_names_and_factories():
    assert SCHEDULERS.available() == ["fcfs", "fr_fcfs", "fr_fcfs_cap"]
    assert isinstance(SCHEDULERS.make("fr_fcfs", num_banks=1), FrFcfsScheduler)
    assert isinstance(SCHEDULERS.make("fcfs", num_banks=1), FcfsScheduler)
    assert isinstance(
        SCHEDULERS.make("fr_fcfs_cap", num_banks=1), FrFcfsCapScheduler
    )


def test_registry_unknown_name_lists_field_and_names():
    with pytest.raises(ValueError) as excinfo:
        SCHEDULERS.make("round_robin", num_banks=1)
    message = str(excinfo.value)
    assert "'scheduler'" in message          # the config field
    assert "fr_fcfs" in message and "fcfs" in message


def test_registry_params_forwarded():
    assert SCHEDULERS.make("fr_fcfs", num_banks=1, cap=7).cap == 7
    assert SCHEDULERS.make("fr_fcfs_cap", num_banks=1, batch=3).batch == 3


# ----------------------------------------------------------------------
# FCFS: strict arrival order
# ----------------------------------------------------------------------
def test_fcfs_ignores_row_hits(bank):
    sched = FcfsScheduler(num_banks=1)
    bank.activate(5, 0.0)
    older_conflict, hit = _req(1), _req(5)
    sched.enqueue(older_conflict, 0)
    sched.enqueue(hit, 0)
    # Unlike FR-FCFS, age always wins — the queued hit cannot bypass.
    assert sched.pick(0, bank) is older_conflict
    assert sched.pick(0, bank) is hit
    assert sched.pick(0, bank) is None


def test_fcfs_bookkeeping_matches_base(bank):
    sched = FcfsScheduler(num_banks=4)
    for bank_id in (2, 0):
        sched.enqueue(_req(0), bank_id)
    assert sched.pending() == 2
    assert list(sched.banks_with_work()) == [0, 2]
    sched.pick(2, bank)
    assert list(sched.banks_with_work()) == [0]
    assert sched.pending() == 1


# ----------------------------------------------------------------------
# Batch-capped FR-FCFS: hits win within the batch only
# ----------------------------------------------------------------------
def test_fr_fcfs_cap_prefers_hit_within_batch(bank):
    sched = FrFcfsCapScheduler(num_banks=1, batch=4)
    bank.activate(5, 0.0)
    conflict, hit = _req(1), _req(5)
    sched.enqueue(conflict, 0)
    sched.enqueue(hit, 0)
    assert sched.pick(0, bank) is hit
    assert sched.pick(0, bank) is conflict


def test_fr_fcfs_cap_hit_outside_batch_cannot_bypass(bank):
    sched = FrFcfsCapScheduler(num_banks=1, batch=2)
    bank.activate(5, 0.0)
    conflicts = [_req(1), _req(2), _req(3)]
    for request in conflicts:
        sched.enqueue(request, 0)
    late_hit = _req(5)
    sched.enqueue(late_hit, 0)
    # Batch = the two oldest conflicts; the hit sits outside it and
    # must wait for the batch to drain (the hard starvation bound).
    assert sched.pick(0, bank) is conflicts[0]
    assert sched.pick(0, bank) is conflicts[1]
    # New batch: the hit is now inside and bypasses the third conflict.
    assert sched.pick(0, bank) is late_hit
    assert sched.pick(0, bank) is conflicts[2]


def test_fr_fcfs_cap_serves_every_request_within_batch_picks(bank):
    # Starvation bound: once a request heads the queue it is served in
    # at most `batch` picks, regardless of how many hits keep arriving.
    batch = 3
    sched = FrFcfsCapScheduler(num_banks=1, batch=batch)
    bank.activate(5, 0.0)
    starving = _req(1)
    sched.enqueue(starving, 0)
    served_starving_after = None
    for pick_count in range(1, 20):
        sched.enqueue(_req(5), 0)   # a fresh hit every round
        if sched.pick(0, bank) is starving:
            served_starving_after = pick_count
            break
    assert served_starving_after is not None
    assert served_starving_after <= batch


def test_fr_fcfs_cap_invalid_batch():
    with pytest.raises(ValueError):
        FrFcfsCapScheduler(num_banks=1, batch=0)
