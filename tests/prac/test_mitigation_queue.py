"""Unit and property tests for the mitigation queue designs."""

from hypothesis import given, settings, strategies as st

from repro.attacks.probes import bank_address
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.config import small_test_config
from repro.mitigations import TpracPolicy
from repro.prac.mitigation_queue import (
    PRIORITY_QUEUE_DEPTH,
    PriorityMitigationQueue,
    SingleEntryFrequencyQueue,
)
from tests.prac.queue_state import peek


class TestSingleEntry:
    def test_tracks_most_activated_row(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        queue.observe(2, 3)
        assert peek(queue) == (1, 5)

    def test_replaces_on_strictly_higher_count(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        queue.observe(2, 6)
        assert peek(queue) == (2, 6)

    def test_tie_keeps_incumbent_like_paper_fig8(self):
        # Row C enters first at 43; Row T reaching 43 must NOT displace it.
        queue = SingleEntryFrequencyQueue()
        queue.observe(12, 43)   # Row C
        queue.observe(99, 43)   # Row T, equal count
        assert peek(queue) == (12, 43)

    def test_same_row_count_updates_in_place(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        queue.observe(1, 6)
        assert peek(queue) == (1, 6)

    def test_pop_empties_queue(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        assert queue.pop_victim() == 1
        assert queue.pop_victim() is None
        assert len(queue) == 0

    def test_clear(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        queue.clear()
        assert len(queue) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        observations=st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 1000)), min_size=1
        )
    )
    def test_always_holds_a_maximal_count_seen(self, observations):
        """Invariant: the stored count is the max over current counts."""
        queue = SingleEntryFrequencyQueue()
        latest = {}
        for row, count in observations:
            # Counts per row must be non-decreasing like real counters.
            count = max(count, latest.get(row, 0) + 1)
            latest[row] = count
            queue.observe(row, count)
        stored = peek(queue)
        assert stored is not None
        assert stored[1] == max(latest.values())


class TestPriorityQueue:
    def test_pops_highest_count_first(self):
        queue = PriorityMitigationQueue()
        queue.observe(1, 10)
        queue.observe(2, 30)
        queue.observe(3, 20)
        assert queue.pop_victim() == 2
        assert queue.pop_victim() == 3
        assert queue.pop_victim() == 1
        assert queue.pop_victim() is None

    def test_overflow_evicts_weakest(self):
        queue = PriorityMitigationQueue()
        for row in range(PRIORITY_QUEUE_DEPTH):  # rows 0..3, counts 10..40
            queue.observe(row, 10 * (row + 1))
        queue.observe(9, 15)   # evicts row 0 (count 10)
        assert len(queue) == PRIORITY_QUEUE_DEPTH
        drained = [queue.pop_victim() for _ in range(PRIORITY_QUEUE_DEPTH)]
        assert drained == [3, 2, 1, 9]

    def test_overflow_ignores_weaker_newcomer(self):
        queue = PriorityMitigationQueue()
        for row in range(PRIORITY_QUEUE_DEPTH):
            queue.observe(row, 10 * (row + 1))
        queue.observe(9, 5)
        assert len(queue) == PRIORITY_QUEUE_DEPTH
        drained = [queue.pop_victim() for _ in range(PRIORITY_QUEUE_DEPTH)]
        assert drained == [3, 2, 1, 0]


def _feinting_peak(queue_class, nbo=64, pool=8, tb_window=2000.0):
    """Round-robin ``pool`` rows of one bank against TPRAC built on
    ``queue_class``; return (highest counter any row reached, alerts)."""
    config = small_test_config(rows_per_bank=1024, nbo=nbo).with_prac(
        nbo=nbo, abo_act=0
    )
    tprac = type("Tprac", (TpracPolicy,), {"queue_class": queue_class})
    engine = Engine()
    policy = tprac(tb_window=tb_window)
    mc = MemoryController(engine, config, policy=policy, enable_refresh=False)
    bank = mc.channel.bank(0)
    state = {"issued": 0, "peak": 0}

    def issue(req=None):
        state["peak"] = max(state["peak"], max(bank.counters.values(), default=0))
        if state["issued"] >= pool * nbo:
            return
        row = state["issued"] % pool
        state["issued"] += 1
        mc.enqueue(MemRequest(phys_addr=bank_address(mc, 0, row), on_complete=issue))

    issue()
    engine.run(until=100_000_000)
    return state["peak"], mc.abo.alert_count


def test_single_entry_queue_matches_a_deeper_priority_queue_under_feinting():
    """Section 4.2.3: TPRAC's single-entry frequency queue protects as
    well as a 4-deep priority queue against round-robin Feinting."""
    single_peak, single_alerts = _feinting_peak(SingleEntryFrequencyQueue)
    priority_peak, _ = _feinting_peak(PriorityMitigationQueue)
    assert single_alerts == 0
    assert single_peak < 64
    assert abs(single_peak - priority_peak) <= 8
