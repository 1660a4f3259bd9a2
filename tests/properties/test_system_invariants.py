"""Property tests: whole-system invariants under randomized traffic."""

from hypothesis import given, settings, strategies as st

from repro.attacks.probes import bank_address
from repro.config import SystemConfig
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.config import small_test_config
from repro.mitigations.base import NoMitigationPolicy
from repro.mitigations.tprac import TpracPolicy


#: Hard cap on one example's simulated time (ns).  The chain's last
#: completion stops the engine long before it.
HORIZON_NS = 500_000_000

#: Idle time (in tREFI) simulated after the chain, so REF and TB-RFM
#: spacing on an idle channel is still exercised.
IDLE_TAIL_TREFI = 20


def _drive_random(mc, accesses):
    """Replay (bank, row, is_write) tuples as a dependent chain.

    The final completion requests an engine stop: the REF/TB-RFM timers
    re-arm forever, so without it every example would fire idle timer
    events all the way to the horizon.
    """
    state = {"i": 0}

    def issue(req=None):
        if state["i"] >= len(accesses):
            mc.engine.request_stop()
            return
        bank, row, is_write = accesses[state["i"]]
        state["i"] += 1
        mc.enqueue(
            MemRequest(
                phys_addr=bank_address(mc, bank, row),
                is_write=is_write,
                on_complete=issue,
            )
        )

    issue()
    mc.engine.run(until=HORIZON_NS)
    return state["i"]


def _idle_tail(mc):
    """Run the now-idle channel for :data:`IDLE_TAIL_TREFI` refreshes."""
    engine = mc.engine
    engine.run(until=engine.now + IDLE_TAIL_TREFI * mc.config.timing.tREFI)


ACCESS = st.tuples(
    st.integers(0, 3), st.integers(0, 12), st.booleans()
)


@settings(max_examples=200, deadline=None)
@given(accesses=st.lists(ACCESS, min_size=1, max_size=80))
def test_no_request_is_lost_or_duplicated(accesses):
    mc = MemoryController(
        Engine(), small_test_config(), policy=NoMitigationPolicy(),
        enable_abo=False, enable_refresh=False,
    )
    served = _drive_random(mc, accesses)
    assert served == len(accesses)
    assert mc.stats.requests_served == len(accesses)
    assert mc.stats.reads + mc.stats.writes == len(accesses)
    assert mc.scheduler.pending() == 0


@settings(max_examples=120, deadline=None)
@given(accesses=st.lists(ACCESS, min_size=5, max_size=60))
def test_random_traffic_is_timing_clean(accesses):
    """Any random dependent chain, then an idle tail of REF/TB-RFM
    windows, yields a JEDEC-legal command trace."""
    config = small_test_config(nbo=10**6).with_prac(nbo=10**6)
    mc = MemoryController(
        Engine(), config, policy=TpracPolicy(tb_window=3000.0),
        system=SystemConfig(sanitize=True), enable_refresh=True,
    )
    assert _drive_random(mc, accesses) == len(accesses)
    refreshes = mc.refresh.refresh_count
    _idle_tail(mc)
    assert mc.refresh.refresh_count >= refreshes + IDLE_TAIL_TREFI - 1
    # A violation raises ProtocolViolation mid-run; this guards against
    # the sanitizer not being attached at all.
    assert mc.sanitizer is not None and mc.sanitizer.ok


@settings(max_examples=120, deadline=None)
@given(
    accesses=st.lists(ACCESS, min_size=1, max_size=60),
    window=st.floats(min_value=800.0, max_value=6000.0),
)
def test_tprac_counters_bounded_by_window_capacity(accesses, window):
    """No counter can exceed what fits between two TB-RFM pops plus the
    pre-existing backlog — and with the queue always tracking the max,
    the peak stays below 2x the per-window activation capacity once the
    defense is active.  Counters are read as the chain completes, before
    idle TB-RFMs could drain them."""
    config = small_test_config(nbo=10**6).with_prac(nbo=10**6)
    mc = MemoryController(
        Engine(), config, policy=TpracPolicy(tb_window=window),
        enable_refresh=False,
    )
    _drive_random(mc, accesses * 4)
    peak = max(
        (max(bank.counters.values(), default=0) for bank in mc.channel),
        default=0,
    )
    acts_per_window = window / 70.0
    assert peak <= max(2 * acts_per_window, len(accesses) * 4)
