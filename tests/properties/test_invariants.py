"""Cross-cutting property-based tests on simulator invariants."""

from hypothesis import given, settings, strategies as st

from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations.base import NoMitigationPolicy
from repro.mitigations.tprac import TpracPolicy
from repro.prac.mitigation_queue import SingleEntryFrequencyQueue
from tests.prac.queue_state import peek


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(st.integers(0, 30), min_size=1, max_size=60),
)
def test_counters_equal_activation_events(rows):
    """Sum of PRAC counters == number of ACT commands issued."""
    mc = MemoryController(
        Engine(), small_test_config(), policy=NoMitigationPolicy(),
        enable_abo=False, enable_refresh=False,
    )
    addrs = [_row_addr(mc, row) for row in rows]
    state = {"i": 0}

    def issue(req=None):
        if state["i"] >= len(addrs):
            return
        addr = addrs[state["i"]]
        state["i"] += 1
        mc.enqueue(MemRequest(phys_addr=addr, on_complete=issue))

    issue()
    mc.engine.run(until=10_000_000)
    bank = mc.channel.bank(0)
    assert sum(bank.counters.values()) == bank.stats.activations


def _row_addr(mc, row):
    from repro.dram.address import DramAddress

    return mc.mapping.encode(DramAddress(0, 0, 0, row, 0))


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(st.integers(0, 10), min_size=2, max_size=40),
)
def test_completion_times_never_decrease_per_bank(rows):
    """Requests to one bank complete in service order."""
    mc = MemoryController(
        Engine(), small_test_config(), policy=NoMitigationPolicy(),
        enable_abo=False, enable_refresh=False,
    )
    done = []
    state = {"i": 0}

    def issue(req=None):
        if req is not None:
            done.append(req.done_time)
        if state["i"] >= len(rows):
            return
        addr = _row_addr(mc, rows[state["i"]])
        state["i"] += 1
        mc.enqueue(MemRequest(phys_addr=addr, on_complete=issue))

    issue()
    mc.engine.run(until=10_000_000)
    assert done == sorted(done)
    assert len(done) == len(rows)


@settings(max_examples=15, deadline=None)
@given(window=st.floats(min_value=500.0, max_value=20_000.0))
def test_tb_rfm_count_matches_elapsed_windows(window):
    """TB-RFMs are a pure function of time: count == floor(T / window)."""
    mc = MemoryController(
        Engine(), small_test_config(), policy=TpracPolicy(tb_window=window),
        enable_abo=False, enable_refresh=False,
    )
    horizon = 10 * window + 250.0
    mc.engine.run(until=horizon)
    expected = int(horizon // window)
    assert abs(mc.stats.rfm_count(RfmProvenance.TB) - expected) <= 1


@settings(max_examples=40, deadline=None)
@given(
    observations=st.lists(
        st.tuples(st.integers(0, 8), st.integers(1, 100)), min_size=1, max_size=50
    )
)
def test_single_entry_queue_never_underestimates(observations):
    """The queue's stored count >= every observation it accepted last."""
    queue = SingleEntryFrequencyQueue()
    for row, count in observations:
        queue.observe(row, count)
        peeked = peek(queue)
        assert peeked is not None
        # The stored count can only grow or track the stored row.
        assert peeked[1] >= 1
