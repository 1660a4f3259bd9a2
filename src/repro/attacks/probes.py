"""Attacker primitives: the latency probe and the hammering sender.

The probe is the receiver side of every PRACLeak variant: a thread in a
different bank that issues memory accesses in a closed loop and records
each access's end-to-end latency.  An RFMab anywhere on the channel
blocks the probe's bank too, so the probe sees a latency spike whose
magnitude (~N_mit * tRFMab) identifies the mitigation (Figure 3).

The probe re-accesses one row (the controller is open-page): every
access is a row-buffer hit, so the probe's own activation counters
never move and it cannot self-induce an ABO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.dram.address import DramAddress
from repro.dram.config import DramTiming

#: Latency (ns) above which an access counts as a spike: well above an
#: uncontended access (~70-90 ns), well below an RFM stall (>= tRFMab).
SPIKE_THRESHOLD_NS = 250.0


def chain_cadence_ns(timing: DramTiming) -> float:
    """Time per activation of a dependent chain of row conflicts: one
    access's data return (tRCD + tCL + tBL) plus the precharge (tRP)
    before the next activation."""
    return (timing.tRCD + timing.tCL + timing.tBL) + timing.tRP


def refresh_inflation(timing: DramTiming) -> float:
    """Factor by which periodic REFab stretches a busy stretch of time:
    of every tREFI, tRFC is blocked."""
    return timing.tREFI / (timing.tREFI - timing.tRFC)


def bank_address(controller: MemoryController, bank: int, row: int) -> int:
    """Physical address of (flat bank, row, column 0) on the channel.

    ``bank`` is the channel-wide flat id, rank-major as
    :meth:`~repro.dram.address.DramAddress.flat_bank` numbers it, so the
    rank is derived from it.  Raises ``ValueError`` outside
    ``range(banks_per_channel)``.
    """
    org = controller.config.organization
    banks_per_group = org.banks_per_group
    # Attackers call this once per access, so banks per rank is
    # multiplied out here rather than read through its property.
    rank, bank_in_rank = divmod(bank, org.bank_groups * banks_per_group)
    if not 0 <= rank < org.ranks:
        raise ValueError(
            f"bank {bank} out of range for {org.banks_per_channel} banks per channel"
        )
    bank_group, bank_in_group = divmod(bank_in_rank, banks_per_group)
    return controller.mapping.encode(
        DramAddress(
            rank=rank,
            bank_group=bank_group,
            bank=bank_in_group,
            row=row,
            column=0,
        )
    )


def is_rfm_spike(
    latency: float,
    done_time: float,
    timing,
    baseline_ns: float = 0.0,
) -> bool:
    """Classify a latency spike as RFM-caused rather than refresh-caused.

    The attacker knows the refresh grid (tREFI-periodic) and the
    blocking durations, and can calibrate its own no-contention access
    latency (``baseline_ns``).  A refresh-only spike completes shortly
    after a grid point with *excess* latency ~tRFC; a single RFMab
    stalls only tRFMab = tRFC - 60 ns, so the excess distinguishes them
    even when an RFM lands right before the grid.  Channel blocking
    serializes, so an RFM colliding with a refresh produces an additive
    stall (>= tRFC + tRFMab) and is always detected.

    A spike is therefore dismissed as "just the refresh" only when it
    is on-grid *and* its baseline-corrected excess sits inside the
    refresh band [tRFC - 40, tRFC + 160].
    """
    if latency <= SPIKE_THRESHOLD_NS:
        return False
    phase = done_time % timing.tREFI
    on_refresh_grid = phase < timing.tRFC + 300.0
    excess = latency - baseline_ns
    refresh_band = (timing.tRFC - 40.0) <= excess <= (timing.tRFC + 160.0)
    return not (on_refresh_grid and refresh_band)


@dataclass
class ProbeResult:
    """Latency trace observed by the probe."""

    times: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def baseline(self) -> float:
        """Median uncontended latency (spikes excluded) — the attacker's
        calibration input to :func:`is_rfm_spike`."""
        normal = sorted(lat for lat in self.latencies if lat <= SPIKE_THRESHOLD_NS)
        if not normal:
            return 0.0
        return normal[len(normal) // 2]

    def rfm_spikes(self, timing: DramTiming) -> List[Tuple[float, float]]:
        """``(time, latency)`` of every access :func:`is_rfm_spike`
        attributes to an RFM, against this trace's :meth:`baseline`."""
        baseline = self.baseline()
        return [
            (t, lat)
            for t, lat in zip(self.times, self.latencies)
            if is_rfm_spike(lat, t, timing, baseline)
        ]


class LatencyProbe:
    """Closed-loop latency monitor on one bank of the shared channel:
    core 1 re-reads row 0 of ``bank``, one access at a time."""

    def __init__(self, controller: MemoryController, bank: int) -> None:
        self.controller = controller
        self.bank = bank
        # Resolved once (an out-of-range bank raises here): the probe
        # reissues to this address on every access.
        self._addr = bank_address(controller, bank, 0)
        self.result = ProbeResult()
        self._running = False

    def start(self) -> None:
        """Begin issuing; idempotent."""
        self._running = True
        self._issue()

    def stop(self) -> None:
        """Stop after the in-flight access completes."""
        self._running = False

    def _issue(self) -> None:
        if not self._running:
            return
        self.controller.enqueue(
            MemRequest(phys_addr=self._addr, core_id=1, on_complete=self._completed)
        )

    def _completed(self, request: MemRequest) -> None:
        self.result.times.append(request.done_time)
        self.result.latencies.append(request.latency)
        self._issue()


class RowHammerSender:
    """Sender primitive: drive activations onto a chosen row.

    ``hammer(row, activations, done)`` alternates accesses between the
    target row and a decoy in the same bank so every access causes a
    row-buffer conflict, i.e. one activation — the paper's sender
    pattern.  The decoy rotates so its own counter also rises (both
    rows accumulate activations; the Alert fires at whichever reaches
    N_BO first).  The sender issues as core 0.
    """

    def __init__(self, controller: MemoryController, bank: int) -> None:
        self.controller = controller
        self.bank = bank
        self.accesses_issued = 0

    def hammer(
        self,
        row: int,
        target_acts: int,
        decoy_row: int,
        done=None,
        close_row: Optional[int] = None,
    ) -> None:
        """Put ``target_acts`` activations on ``row`` (paired with decoy).

        Always closes with an access to ``close_row`` (default: a third
        row) so the row buffer does not hold the target afterwards — a
        later accessor's first touch must be a conflict, i.e. a real
        activation.  The closing row is distinct from the decoy so the
        decoy's counter stays at exactly ``target_acts``.
        """
        if close_row is None:
            close_row = decoy_row + 1 if decoy_row + 1 != row else decoy_row + 2
        state = {"remaining": target_acts, "toggle": False, "closed": False}

        def issue(request: Optional[MemRequest] = None) -> None:
            if state["remaining"] <= 0:
                if state["toggle"] and not state["closed"]:
                    # Last access hit the target row; close elsewhere.
                    state["closed"] = True
                    self._access(close_row, issue)
                    return
                if done is not None:
                    done()
                return
            if state["toggle"]:
                target = decoy_row
            else:
                target = row
                state["remaining"] -= 1
            state["toggle"] = not state["toggle"]
            self._access(target, issue)

        issue()

    def _access(self, row: int, on_complete) -> None:
        self.accesses_issued += 1
        addr = bank_address(self.controller, self.bank, row)
        self.controller.enqueue(
            MemRequest(phys_addr=addr, on_complete=on_complete)
        )
