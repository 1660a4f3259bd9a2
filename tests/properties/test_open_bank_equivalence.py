"""Equivalence of the proportional REF/RFM paths against a full scan.

``Channel.block`` precharges only the banks in ``open_banks`` and keeps
the channel-wide window in ``blocked_until`` alone; an RFM pops only the
policy's ``armed`` queues; an RFM burst resets ``activations_since_rfm``
only on ``activated_banks``.  The reference model below is the
straightforward formulation they replace: every bank visited on every
block, pop and burst, with the window written into each bank's
``ready_at``.  Random command sequences must leave both in the same
observable state, per bank and per RFM.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.controller.controller import MemoryController
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import DramConfig, DramOrganization, PracConfig
from repro.mitigations.tprac import TpracPolicy
from repro.prac.mitigation_queue import (
    FifoMitigationQueue,
    MitigationQueue,
    PriorityMitigationQueue,
    SingleEntryFrequencyQueue,
)

BANKS = 8
ROWS = 16
QUEUES = {
    "single": SingleEntryFrequencyQueue,
    "priority": PriorityMitigationQueue,
    "fifo": FifoMitigationQueue,
}


def _config() -> DramConfig:
    org = DramOrganization(
        ranks=1, bank_groups=2, banks_per_group=BANKS // 2, rows_per_bank=ROWS
    )
    # N_BO out of reach: no Alert, so ABO never joins in.
    return DramConfig(organization=org, prac=PracConfig(nbo=10**6)).validate()


class RefBank:
    """One bank of the reference model."""

    def __init__(self, queue: MitigationQueue) -> None:
        self.open_row: Optional[int] = None
        self.ready_at = 0.0
        self.precharge_done_at = 0.0
        self.precharges = 0
        self.mitigations = 0
        self.activations_since_rfm = 0
        self.counters: Dict[int, int] = {}
        self.queue = queue


class RefChannel:
    """Full-scan reference: every operation visits every bank."""

    def __init__(self, config: DramConfig, kind: str) -> None:
        self.timing = config.timing
        self.banks = [RefBank(QUEUES[kind]()) for _ in range(BANKS)]
        self.blocked_until = 0.0
        self.bus_free_at = 0.0

    def activate(self, bank_id: int, row: int, time: float) -> None:
        bank = self.banks[bank_id]
        bank.open_row = row
        bank.ready_at = time + self.timing.tRC
        bank.activations_since_rfm += 1
        count = bank.counters.get(row, 0) + 1
        bank.counters[row] = count
        bank.queue.observe(row, count)

    def precharge(self, bank_id: int, time: float) -> None:
        bank = self.banks[bank_id]
        bank.open_row = None
        bank.precharges += 1
        bank.precharge_done_at = time + self.timing.tRP

    def block(self, start: float, duration: float) -> float:
        end = start + duration
        self.blocked_until = max(self.blocked_until, end)
        for bank_id, bank in enumerate(self.banks):
            if bank.open_row is not None:
                self.precharge(bank_id, start)
            bank.ready_at = max(bank.ready_at, end)
        self.bus_free_at = max(self.bus_free_at, end)
        return end

    def block_bank(self, bank_id: int, start: float, duration: float) -> None:
        bank = self.banks[bank_id]
        if bank.open_row is not None:
            self.precharge(bank_id, start)
        bank.ready_at = max(bank.ready_at, start + duration)

    def pop_all(self) -> Dict[int, int]:
        mitigated: Dict[int, int] = {}
        for bank_id, bank in enumerate(self.banks):
            victim = bank.queue.pop_victim()
            if victim is None:
                continue
            bank.counters.pop(victim, None)
            bank.mitigations += 1
            mitigated[bank_id] = victim
        return mitigated

    def rfm_burst(self, count: int) -> List[Dict[int, int]]:
        # The controller's engine never runs here, so now == 0.
        t = max(0.0, self.blocked_until, self.bus_free_at)
        records = []
        for _ in range(count):
            start = max(t, self.blocked_until)
            t = self.block(start, self.timing.tRFMab)
            records.append(self.pop_all())
        for bank in self.banks:
            bank.activations_since_rfm = 0
        return records

    def counter_reset(self) -> None:
        for bank in self.banks:
            bank.queue.clear()


_bank = st.integers(0, BANKS - 1)
_dt = st.sampled_from([0.0, 1.0, 30.0, 100.0, 500.0])
_act = st.tuples(st.just("act"), _bank, st.integers(0, ROWS - 1), _dt)
# ACTs weighted up so queues often hold several rows when an RFM pops.
_op = st.one_of(
    _act,
    _act,
    _act,
    st.tuples(st.just("pre"), _bank, _dt),
    st.tuples(st.just("block"), _dt, st.sampled_from([10.0, 350.0, 410.0])),
    st.tuples(st.just("block_bank"), _bank, _dt, st.sampled_from([10.0, 130.0])),
    st.tuples(st.just("rfm"), st.integers(1, 3)),
    st.tuples(st.just("tref"),),
    st.tuples(st.just("reset"),),
)


def _assert_same_banks(mc: MemoryController, ref: RefChannel) -> None:
    channel = mc.channel
    assert channel.blocked_until == ref.blocked_until
    assert channel.bus_free_at == ref.bus_free_at
    for bank, expected in zip(channel.banks, ref.banks):
        assert bank.open_row == expected.open_row
        assert bank.stats.precharges == expected.precharges
        assert bank.precharge_done_at == expected.precharge_done_at
        # The effective ACT floor: readers fold in blocked_until.
        assert max(bank.ready_at, channel.blocked_until) == max(
            expected.ready_at, ref.blocked_until
        )
        assert bank.activations_since_rfm == expected.activations_since_rfm
        assert bank.stats.mitigations == expected.mitigations
        assert bank.counters == expected.counters
    for queue, expected in zip(mc.policy.queues, ref.banks):
        assert queue.peek() == expected.queue.peek()
        assert len(queue) == len(expected.queue)


@pytest.mark.parametrize("kind", list(QUEUES))
@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_op, min_size=5, max_size=80))
# A pop that leaves rows queued must keep its bank armed for the next.
@example(ops=[("act", 3, 1, 0.0), ("act", 3, 2, 0.0), ("rfm", 1), ("tref",)])
def test_matches_full_scan_reference(kind, ops):
    config = _config()
    policy = TpracPolicy(tb_window=1e9, queue_factory=QUEUES[kind])
    mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
    ref = RefChannel(config, kind)
    channel = mc.channel
    now = 0.0
    for op in ops:
        name = op[0]
        if name == "act":
            _, bank_id, row, dt = op
            now += dt
            channel.bank(bank_id).activate(row, now)
            ref.activate(bank_id, row, now)
        elif name == "pre":
            _, bank_id, dt = op
            now += dt
            channel.bank(bank_id).precharge(now)
            ref.precharge(bank_id, now)
        elif name == "block":
            _, dt, duration = op
            now += dt
            assert channel.block(now, duration) == ref.block(now, duration)
        elif name == "block_bank":
            _, bank_id, dt, duration = op
            now += dt
            channel.block_bank(bank_id, now, duration)
            ref.block_bank(bank_id, now, duration)
        elif name == "rfm":
            before = len(mc.stats.rfm_records)
            mc._issue_rfm_burst(op[1], RfmProvenance.TB)
            got = [r.mitigated_rows for r in mc.stats.rfm_records[before:]]
            expected = ref.rfm_burst(op[1])
            # Same victims, and the same (ascending bank) key order.
            assert [list(m.items()) for m in got] == [
                list(m.items()) for m in expected
            ]
        elif name == "tref":
            policy.on_tref(mc, now)
            ref.pop_all()
        else:
            policy.on_counter_reset(mc, now)
            ref.counter_reset()
        _assert_same_banks(mc, ref)
