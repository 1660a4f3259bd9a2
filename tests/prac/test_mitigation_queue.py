"""Unit and property tests for the mitigation queue designs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.prac.mitigation_queue import (
    FifoMitigationQueue,
    PriorityMitigationQueue,
    SingleEntryFrequencyQueue,
)


class TestSingleEntry:
    def test_tracks_most_activated_row(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        queue.observe(2, 3)
        assert queue.peek() == (1, 5)

    def test_replaces_on_strictly_higher_count(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        queue.observe(2, 6)
        assert queue.peek() == (2, 6)

    def test_tie_keeps_incumbent_like_paper_fig8(self):
        # Row C enters first at 43; Row T reaching 43 must NOT displace it.
        queue = SingleEntryFrequencyQueue()
        queue.observe(12, 43)   # Row C
        queue.observe(99, 43)   # Row T, equal count
        assert queue.peek() == (12, 43)

    def test_same_row_count_updates_in_place(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        queue.observe(1, 6)
        assert queue.peek() == (1, 6)

    def test_pop_empties_queue(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        assert queue.pop_victim() == 1
        assert queue.pop_victim() is None
        assert len(queue) == 0

    def test_drop_only_matching_row(self):
        queue = SingleEntryFrequencyQueue()
        queue.observe(1, 5)
        queue.drop(2)
        assert queue.peek() == (1, 5)
        queue.drop(1)
        assert queue.peek() is None

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
        stored = queue.peek()
        assert stored is not None
        assert stored[1] == max(latest.values())


class TestPriorityQueue:
    def test_pops_highest_count_first(self):
        queue = PriorityMitigationQueue(capacity=3)
        queue.observe(1, 10)
        queue.observe(2, 30)
        queue.observe(3, 20)
        assert queue.pop_victim() == 2
        assert queue.pop_victim() == 3
        assert queue.pop_victim() == 1
        assert queue.pop_victim() is None

    def test_overflow_evicts_weakest(self):
        queue = PriorityMitigationQueue(capacity=2)
        queue.observe(1, 10)
        queue.observe(2, 20)
        queue.observe(3, 15)   # evicts row 1 (count 10)
        assert sorted(r for r, _ in [queue.peek()]) == [2]
        queue.drop(2)
        assert queue.peek() == (3, 15)

    def test_overflow_ignores_weaker_newcomer(self):
        queue = PriorityMitigationQueue(capacity=2)
        queue.observe(1, 10)
        queue.observe(2, 20)
        queue.observe(3, 5)
        assert len(queue) == 2
        assert queue.pop_victim() == 2
        assert queue.pop_victim() == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PriorityMitigationQueue(capacity=0)


class TestFifoQueue:
    def test_insertion_order_pop(self):
        queue = FifoMitigationQueue(capacity=3)
        queue.observe(5, 1)
        queue.observe(6, 2)
        assert queue.pop_victim() == 5

    def test_full_fifo_drops_newcomers(self):
        """The exploitable flaw: decoys fill the FIFO, aggressor dropped."""
        queue = FifoMitigationQueue(capacity=2)
        queue.observe(1, 1)
        queue.observe(2, 1)
        queue.observe(99, 1000)   # the actual aggressor is ignored
        assert len(queue) == 2
        assert queue.pop_victim() == 1
        assert queue.pop_victim() == 2
        assert queue.pop_victim() is None

    def test_threshold_filters_light_rows(self):
        queue = FifoMitigationQueue(capacity=4, threshold=10)
        queue.observe(1, 9)
        assert len(queue) == 0
        queue.observe(1, 10)
        assert len(queue) == 1
