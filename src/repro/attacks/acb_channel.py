"""Timing channel through Activation-Based RFMs (Figure 2(b)).

The JEDEC Targeted-RFM flow (our ``AcbRfmPolicy``) eliminates ABO-RFMs
by proactively issuing an RFM whenever a bank accumulates BAT
activations — but the RFM is still a deterministic function of the
victim's *activity level*, so an attacker can count ACB-RFMs in a
window to estimate how many activations the victim performed.  This is
the paper's argument for why activity-dependent proactive RFMs cannot
close the channel, motivating TPRAC's time-based schedule.

The sender encodes a bit by either activating rows in its bank at a
high rate ('1') or idling ('0'); the receiver counts RFM-sized latency
spikes per window.  Under TPRAC the same decoder sees an identical RFM
count in every window regardless of the sender.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.attacks.probes import LatencyProbe, bank_address, is_rfm_spike
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.config import DramConfig, ddr5_8000b
from repro.mitigations import make_policy, policy_factory


@dataclass
class AcbChannelResult:
    """Outcome of one ACB-RFM covert transmission."""

    sent_bits: List[int]
    received_bits: List[int]
    rfm_counts_per_window: List[int]
    window_ns: float
    defense: str

    @property
    def error_rate(self) -> float:
        if not self.sent_bits:
            return 0.0
        wrong = sum(1 for s, r in zip(self.sent_bits, self.received_bits) if s != r)
        return wrong / len(self.sent_bits)


class AcbRfmChannel:
    """Covert channel exploiting BAT-triggered proactive RFMs."""

    def __init__(
        self,
        bat: int = 64,
        message: Optional[List[int]] = None,
        defense: str = "acb",
        seed: int = 13,
        config: Optional[DramConfig] = None,
        spike_threshold_ns: float = 250.0,
    ) -> None:
        """``defense='acb'`` runs the JEDEC flow (leaky); ``'tprac'``
        swaps in timing-based RFMs (channel closed)."""
        if defense not in ("acb", "tprac"):
            raise ValueError("defense must be 'acb' or 'tprac'")
        rng = random.Random(seed)
        self.bat = bat
        self.message = message or [rng.randrange(2) for _ in range(16)]
        self.defense = defense
        # High N_BO so the ABO path never interferes with the study.
        self.config = (config or ddr5_8000b()).with_prac(nbo=100_000)
        self.spike_threshold_ns = spike_threshold_ns
        timing = self.config.timing
        chain_ns = (timing.tRCD + timing.tCL + timing.tBL) + timing.tRP
        # A '1' window drives ~3*BAT activations: enough for >= 2
        # ACB-RFMs even with scheduling noise.
        self.acts_per_one = 3 * bat
        refresh_inflation = timing.tREFI / (timing.tREFI - timing.tRFC)
        self.window_ns = self.acts_per_one * chain_ns * refresh_inflation + 2 * timing.tRFC

    # ------------------------------------------------------------------
    def run(self) -> AcbChannelResult:
        """Run the experiment at the configured scale; returns the result object."""
        engine = Engine()
        if self.defense == "acb":
            policy = make_policy("abo_acb", bat=self.bat)
        else:
            # TPRAC sized for N_BO 1024, not the study's ABO-free N_BO.
            policy = policy_factory("tprac", self.config.with_prac(nbo=1024))()
        controller = MemoryController(engine, self.config, policy=policy)
        probe = LatencyProbe(controller, bank=4, mode="same_row", core_id=1)
        probe.start()

        for index, bit in enumerate(self.message):
            if bit:
                engine.schedule(
                    index * self.window_ns,
                    lambda i=index: self._drive_activity(controller, i),
                    label="acb-send",
                )
        engine.run(until=(len(self.message) + 1) * self.window_ns)
        probe.stop()

        baseline = probe.result.baseline(self.spike_threshold_ns)
        timing = self.config.timing
        rfm_times = [
            t
            for t, lat in zip(probe.result.times, probe.result.latencies)
            if is_rfm_spike(lat, t, timing, self.spike_threshold_ns, baseline)
        ]
        counts = []
        for index in range(len(self.message)):
            lo = index * self.window_ns
            hi = lo + self.window_ns
            counts.append(sum(1 for t in rfm_times if lo <= t < hi))
        # A '1' window drives >= 2 ACB-RFMs; a lone spike near a window
        # boundary is bleed-over from the previous window's last RFM.
        received = [1 if count >= 2 else 0 for count in counts]
        return AcbChannelResult(
            sent_bits=list(self.message),
            received_bits=received,
            rfm_counts_per_window=counts,
            window_ns=self.window_ns,
            defense=self.defense,
        )

    # ------------------------------------------------------------------
    def _drive_activity(self, controller: MemoryController, window_index: int) -> None:
        """Activate a spread of rows in the sender's bank (core 0)."""
        state = {"sent": 0}
        base_row = 64 * window_index  # fresh rows every window

        def issue(req=None) -> None:
            if state["sent"] >= self.acts_per_one:
                return
            row = base_row + (state["sent"] % 32)
            state["sent"] += 1
            controller.enqueue(
                MemRequest(
                    phys_addr=bank_address(controller, 0, row),
                    core_id=0,
                    on_complete=issue,
                )
            )

        issue()
