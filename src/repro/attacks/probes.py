"""Attacker primitives: the latency probe and the hammering sender.

The probe is the receiver side of every PRACLeak variant: a thread in a
different bank that issues memory accesses in a closed loop and records
each access's end-to-end latency.  An RFMab anywhere on the channel
blocks the probe's bank too, so the probe sees a latency spike whose
magnitude (~N_mit * tRFMab) identifies the mitigation (Figure 3).

Two probing modes mirror the paper:

* ``same_row`` (open-page): re-access one row repeatedly — every access
  is a row-buffer hit, so the probe's own activation counters never
  move and it cannot self-induce an ABO.
* ``rotate_rows`` (closed-page): round-robin over many rows, keeping
  each row's counter growth negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.dram.address import DramAddress


def bank_address(
    controller: MemoryController, bank: int, row: int, column: int = 0
) -> int:
    """Physical address of (flat bank, row, column) on the channel.

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
            channel=0,
            rank=rank,
            bank_group=bank_group,
            bank=bank_in_group,
            row=row,
            column=column,
        )
    )


def is_rfm_spike(
    latency: float,
    done_time: float,
    timing,
    threshold_ns: float = 250.0,
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
    if latency <= threshold_ns:
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

    def spikes(self, threshold_ns: float) -> List[int]:
        """Indices of probe accesses whose latency exceeded the threshold."""
        return [i for i, lat in enumerate(self.latencies) if lat > threshold_ns]

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def baseline(self, threshold_ns: float = 250.0) -> float:
        """Median uncontended latency (spikes excluded) — the attacker's
        calibration input to :func:`is_rfm_spike`."""
        normal = sorted(lat for lat in self.latencies if lat <= threshold_ns)
        if not normal:
            return 0.0
        return normal[len(normal) // 2]


class LatencyProbe:
    """Closed-loop latency monitor on one bank of the shared channel."""

    def __init__(
        self,
        controller: MemoryController,
        bank: int,
        mode: str = "same_row",
        rows: Optional[List[int]] = None,
        core_id: int = 1,
        gap_ns: float = 0.0,
    ) -> None:
        if mode not in ("same_row", "rotate_rows"):
            raise ValueError("mode must be 'same_row' or 'rotate_rows'")
        self.controller = controller
        self.bank = bank
        self.mode = mode
        self.rows = rows or ([0] if mode == "same_row" else list(range(64)))
        # Resolved once (an out-of-range bank raises here): the probe
        # reissues to these addresses on every access.
        self._addrs = [bank_address(controller, bank, row) for row in self.rows]
        self.core_id = core_id
        self.gap_ns = gap_ns
        self.result = ProbeResult()
        self._row_cursor = 0
        self._running = False

    def start(self) -> None:
        """Begin issuing; idempotent."""
        self._running = True
        self._issue()

    def stop(self) -> None:
        """Stop after the in-flight access completes."""
        self._running = False

    def _next_addr(self) -> int:
        addr = self._addrs[self._row_cursor % len(self._addrs)]
        if self.mode == "rotate_rows":
            self._row_cursor += 1
        return addr

    def _issue(self) -> None:
        if not self._running:
            return
        addr = self._next_addr()
        request = MemRequest(
            phys_addr=addr, core_id=self.core_id, on_complete=self._completed
        )
        self.controller.enqueue(request)

    def _completed(self, request: MemRequest) -> None:
        self.result.times.append(request.done_time)
        self.result.latencies.append(request.latency)
        if not self._running:
            return
        if self.gap_ns > 0:
            self.controller.engine.schedule_after(self.gap_ns, self._issue)
        else:
            self._issue()


class RowHammerSender:
    """Sender primitive: drive activations onto a chosen row.

    ``hammer(row, activations, done)`` alternates accesses between the
    target row and a decoy in the same bank so every access causes a
    row-buffer conflict, i.e. one activation — the paper's sender
    pattern.  The decoy rotates so its own counter also rises (both
    rows accumulate activations; the Alert fires at whichever reaches
    N_BO first).
    """

    def __init__(
        self,
        controller: MemoryController,
        bank: int,
        core_id: int = 0,
    ) -> None:
        self.controller = controller
        self.bank = bank
        self.core_id = core_id
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
            MemRequest(phys_addr=addr, core_id=self.core_id, on_complete=on_complete)
        )
