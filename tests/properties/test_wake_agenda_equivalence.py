"""Equivalence of the controller's ready-time agenda against a full scan.

``MemoryController._wake`` serves only the banks its agenda (a min-heap
of ``(ready_time, bank_id)``) says are due.  The reference controller
below keeps the straightforward formulation it replaces: every wake
visits every busy bank in ascending id, recomputes its ready time,
serves it if due, and stops issuing once the ABO grace activations are
exhausted.  Concurrent dependent chains over random banks (across
ranks), rows and read/write mixes must produce the same trace (every
command and lifecycle event the recorder of ``SystemConfig(trace=True)``
keeps), the same completion times and the same number of engine events
on both, under policies that move channel-wide state (TPRAC's RFMab bursts, rfmpb's per-bank
blocks, ABO-Only's Alert bursts at a low N_BO).  Each chain issues on
a coarse clock grid after a random think time, so requests from
different chains often reach idle banks at the same instant: the
wakes where several banks with different ready times are due at once.
"""

import math
from functools import partial
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.probes import bank_address
from repro.config import SystemConfig
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import DramConfig, DramOrganization, PracConfig
from repro.mitigations import AboOnlyPolicy, PerBankRfmPolicy, TpracPolicy

RANKS = 2
BANKS = RANKS * 2 * 2
ROWS = 6
#: Hard caps on one example's simulated time (ns) and events; the last
#: completion stops the engine long before either, and the event cap
#: turns a wake that re-arms itself forever into a failure.
HORIZON_NS = 5_000_000
MAX_EVENTS = 200_000
#: Chains issue on this clock grid (ns).
GRID_NS = 10.0

POLICIES = {
    # TB-RFMab bursts every ~1.5 us: frequent channel-wide stale marks.
    "tprac": lambda: TpracPolicy(tb_window=1500.0),
    # One RFMpb every 150 ns, round-robin: frequent per-bank blocks.
    "rfmpb": lambda: PerBankRfmPolicy(tb_window=150.0 * BANKS),
    "abo_only": AboOnlyPolicy,
}


class ScanController(MemoryController):
    """Reference: the full busy-bank scan, no agenda."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Never cleared here, so enqueue never pushes onto the agenda.
        self._agenda_stale = True

    def _wake(self) -> None:
        self._wake_event = None
        self._wake_time = math.inf
        now = self.engine.now
        channel = self.channel
        abo = self.abo
        scheduler = self.scheduler
        if now < channel.blocked_until:
            self._schedule_wake(channel.blocked_until)
            return
        if self.enable_abo and abo.alert_pending:
            deadline = self._abo_deadline
            if (
                abo.must_mitigate_now
                or (deadline is not None and now >= deadline)
                or scheduler.pending() == 0
            ):
                self._issue_rfm_burst(abo.rfm_burst_size(), RfmProvenance.ABO)
                abo.mitigation_done()
                self._abo_deadline = None
                self._schedule_wake(channel.blocked_until)
                return
        if self._pending_rfms:
            self._issue_rfm_burst(1, self._pending_rfms.pop(0))
            self._schedule_wake(channel.blocked_until)
            return

        next_wake: Optional[float] = self._abo_deadline
        served_any = False
        for bank_id in list(scheduler.banks_with_work()):
            if self.enable_abo and abo.must_mitigate_now:
                self._schedule_wake(now)
                break
            ready = self._bank_ready_time(bank_id)
            if ready <= now:
                request = scheduler.pick(bank_id, self._banks[bank_id])
                self._serve(request, bank_id)
                served_any = True
                if not scheduler.queues[bank_id]:
                    continue
                ready = self._bank_ready_time(bank_id)
            if next_wake is None or ready < next_wake:
                next_wake = ready
        if served_any and scheduler.pending():
            self._schedule_wake(now)
        elif next_wake is not None:
            self._schedule_wake(next_wake)


def _config(nbo: int, abo_act: int) -> DramConfig:
    org = DramOrganization(
        ranks=RANKS, bank_groups=2, banks_per_group=2, rows_per_bank=ROWS
    )
    return DramConfig(organization=org, prac=PracConfig(nbo=nbo, abo_act=abo_act)).validate()


#: (bank, row, is_write, think time in grid ticks)
Access = Tuple[int, int, bool, int]


def _run(cls, config, policy_name, chains: List[List[Access]]):
    mc = cls(
        Engine(), config, policy=POLICIES[policy_name](),
        system=SystemConfig(trace=True),
    )
    engine = mc.engine
    done: List[Tuple[int, int, float]] = []
    left = [len(chains)]

    def issue(chain_id: int, index: int) -> None:
        chain = chains[chain_id]
        if index == len(chain):
            left[0] -= 1
            if not left[0]:
                engine.request_stop()
            return
        bank, row, is_write, _think = chain[index]

        def complete(request: MemRequest) -> None:
            done.append((chain_id, index, request.done_time))
            if index + 1 == len(chain):
                issue(chain_id, index + 1)
                return
            think = chain[index + 1][3]
            at = (math.ceil(request.done_time / GRID_NS) + think) * GRID_NS
            engine.schedule(at, partial(issue, chain_id, index + 1), 0, "issue")

        mc.enqueue(
            MemRequest(
                phys_addr=bank_address(mc, bank, row),
                is_write=is_write,
                on_complete=complete,
            )
        )

    for chain_id in range(len(chains)):
        issue(chain_id, 0)
    engine.run(until=HORIZON_NS, max_events=MAX_EVENTS)
    assert not left[0], "a chain did not finish"
    return mc, done


def _trace(mc):
    return [event.to_dict() for event in mc.recorder.events]


ACCESS = st.tuples(
    st.integers(0, BANKS - 1), st.integers(0, ROWS - 1), st.booleans(),
    st.integers(0, 2),
)
CHAINS = st.lists(st.lists(ACCESS, min_size=1, max_size=25), min_size=2, max_size=4)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@settings(max_examples=25, deadline=None)
@given(
    chains=CHAINS,
    nbo=st.sampled_from([3, 6, 1024]),
    abo_act=st.integers(0, 3),
)
def test_agenda_matches_full_scan(policy_name, chains, nbo, abo_act):
    config = _config(nbo, abo_act)
    mc, done = _run(MemoryController, config, policy_name, chains)
    ref, ref_done = _run(ScanController, config, policy_name, chains)
    assert _trace(mc) == _trace(ref)
    assert done == ref_done
    assert mc.engine.events_fired == ref.engine.events_fired
    assert mc.stats.requests_served == sum(len(chain) for chain in chains)


def test_must_mitigate_stop_leaves_due_banks_for_the_next_wake():
    """With no grace ACTs, the Alert an ACT raises stops the wake before
    the other due banks are served; they are served after the burst."""
    config = _config(nbo=1, abo_act=0)
    chains = [[(bank, 0, False, 0)] for bank in range(BANKS)]
    mc, done = _run(MemoryController, config, "abo_only", chains)
    ref, ref_done = _run(ScanController, config, "abo_only", chains)
    assert _trace(mc) == _trace(ref)
    assert done == ref_done
    abo = {"provenance": RfmProvenance.ABO.value}
    abo_rfms = [e for e in mc.recorder.events if e.detail == abo]
    assert len(abo_rfms) == BANKS
