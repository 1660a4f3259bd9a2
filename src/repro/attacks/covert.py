"""PRACLeak covert channels (Section 3.2, Table 2).

Two channel variants between a trojan (sender) and a spy (receiver)
sharing one DRAM channel:

* :class:`ActivityChannel` — the sender transmits one bit per fixed
  time window: '1' by hammering a row pair to the Back-Off threshold
  (triggering an ABO-RFM whose channel-wide stall the receiver sees),
  '0' by staying idle.
* :class:`ActivationCountChannel` — sender and receiver share one DRAM
  row.  The sender activates it k < N_BO times; the receiver then
  activates it until the ABO fires after N_BO - k activations,
  recovering k exactly — log2(N_BO) bits per window.

Both run on the full event-driven controller model, so the measured
period includes real scheduling/refresh noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.attacks.probes import (
    SPIKE_THRESHOLD_NS,
    LatencyProbe,
    RowHammerSender,
    bank_address,
    chain_cadence_ns,
    is_rfm_spike,
    refresh_inflation,
)
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.config import DramConfig, ddr5_8000b
from repro.mitigations import policy_factory


@dataclass
class CovertChannelResult:
    """Outcome of one covert transmission run."""

    sent_bits: List[int]
    received_bits: List[int]
    window_ns: float            # configured transmission window
    elapsed_ns: float
    symbols: int
    bits_per_symbol: int

    @property
    def error_rate(self) -> float:
        if not self.sent_bits:
            return 0.0
        wrong = sum(1 for s, r in zip(self.sent_bits, self.received_bits) if s != r)
        wrong += abs(len(self.sent_bits) - len(self.received_bits))
        return wrong / len(self.sent_bits)

    @property
    def period_us(self) -> float:
        """Measured time per transmitted symbol (us)."""
        if self.symbols == 0:
            return 0.0
        return (self.elapsed_ns / self.symbols) / 1000.0

    @property
    def bitrate_kbps(self) -> float:
        """Measured bits per second / 1000."""
        if self.elapsed_ns <= 0:
            return 0.0
        total_bits = self.symbols * self.bits_per_symbol
        return total_bits / (self.elapsed_ns * 1e-9) / 1000.0


def _attack_config(nbo: int) -> DramConfig:
    """Device config for attack studies: PRAC level 4, as in Table 2.

    ``abo_act=0`` makes the Alert->RFM attribution deterministic (the
    paper's ABO_ACT=3 merely shifts attribution by a known constant;
    see EXPERIMENTS.md).
    """
    return ddr5_8000b().with_prac(nbo=nbo, prac_level=4, abo_act=0)


class _CovertChannel:
    """What both channels share: the device and the defense.

    ``config`` defaults to :func:`_attack_config` of ``nbo``; its PRAC
    level sizes the RFM burst each window leaves room for.  The channel
    runs against the mitigation named ``mitigation`` (ABO-Only is the
    paper's Table 2 setting; campaign grids name TPRAC & co. to measure
    how each defense degrades the channel), built by
    :func:`repro.mitigations.policy_factory` on ``config`` with
    ``seed`` — how every system builder names a design.
    """

    def __init__(
        self,
        nbo: int,
        mitigation: str,
        seed: int,
        config: Optional[DramConfig],
    ) -> None:
        self.nbo = nbo
        self.mitigation = mitigation
        self.seed = seed
        self.config = config or _attack_config(nbo)
        self.prac_level = self.config.prac.prac_level

    def _controller(self, engine: Engine) -> MemoryController:
        policy = policy_factory(self.mitigation, self.config, seed=self.seed)
        return MemoryController(engine, self.config, policy=policy)


class ActivityChannel(_CovertChannel):
    """One bit per window: ABO-RFM present (1) or absent (0)."""

    def __init__(
        self,
        message: List[int],
        nbo: int = 256,
        mitigation: str = "abo_only",
        seed: int = 0,
        config: Optional[DramConfig] = None,
    ) -> None:
        super().__init__(nbo, mitigation, seed, config)
        self.message = list(message)
        #: RFM-like spikes the receiver decoded in the last run
        self.spikes_observed = 0
        # Window: hammering a pair to N_BO takes 2*N_BO activations at
        # the dependent-chain conflict cadence (data return + tRP),
        # inflated by the refresh duty cycle, + the RFM burst + margin.
        timing = self.config.timing
        self.window_ns = (
            2 * nbo * chain_cadence_ns(timing) * refresh_inflation(timing)
            + self.prac_level * timing.tRFMab
            + 2 * timing.tRFC
        )

    # ------------------------------------------------------------------
    def run(self, setup=None) -> CovertChannelResult:
        """Run the experiment at the configured scale; returns the result object.

        ``setup(engine, controller)``, when given, is called after the
        system is built and before any channel event is scheduled —
        campaign trials use it to splice background workload traffic
        into the run as scheduling noise.
        """
        engine = Engine()
        controller = self._controller(engine)
        if setup is not None:
            setup(engine, controller)
        sender = RowHammerSender(controller, bank=0)
        probe = LatencyProbe(controller, bank=4)
        probe.start()

        # The sender schedules each bit at its window start; fresh row
        # pairs per window avoid residual counters from earlier windows.
        for index, bit in enumerate(self.message):
            start = index * self.window_ns
            if bit:
                row = 2 * index
                engine.schedule(
                    start,
                    lambda r=row: sender.hammer(
                        r, target_acts=self.nbo, decoy_row=r + 1
                    ),
                    label="send-1",
                )
        total = len(self.message) * self.window_ns
        engine.run(until=total + self.window_ns)
        probe.stop()

        received = self._decode(probe)
        return CovertChannelResult(
            sent_bits=list(self.message),
            received_bits=received,
            window_ns=self.window_ns,
            elapsed_ns=len(self.message) * self.window_ns,
            symbols=len(self.message),
            bits_per_symbol=1,
        )

    def _decode(self, probe: LatencyProbe) -> List[int]:
        """Bit=1 iff a spike not explained by refresh lands in the window."""
        rfm_like = [t for t, _ in probe.result.rfm_spikes(self.config.timing)]
        self.spikes_observed = len(rfm_like)
        bits = []
        for index in range(len(self.message)):
            lo = index * self.window_ns
            hi = lo + self.window_ns
            bits.append(1 if any(lo <= t < hi for t in rfm_like) else 0)
        return bits


class ActivationCountChannel(_CovertChannel):
    """log2(N_BO) bits per window via a shared DRAM row.

    The receiver counts its own activations to the shared row until the
    ABO-induced spike: ``k = N_BO - receiver_acts``.
    """

    def __init__(
        self,
        values: List[int],
        nbo: int = 256,
        mitigation: str = "abo_only",
        seed: int = 0,
        config: Optional[DramConfig] = None,
    ) -> None:
        super().__init__(nbo, mitigation, seed, config)
        self.values = list(values)
        if any(not 0 <= v < nbo for v in self.values):
            raise ValueError("values must be in [0, N_BO)")
        timing = self.config.timing
        # Sender (2k accesses) + receiver (2(N_BO-k) accesses) both
        # alternate with decoys at the dependent-chain cadence,
        # inflated by the refresh duty cycle, + RFM burst + margin.
        self.window_ns = (
            4 * nbo * chain_cadence_ns(timing) * refresh_inflation(timing)
            + self.prac_level * timing.tRFMab
            + 3 * timing.tRFC
        )

    # ------------------------------------------------------------------
    def run(self, setup=None) -> CovertChannelResult:
        """Run the experiment at the configured scale; returns the result object.

        ``setup(engine, controller)`` hooks in pre-run scheduling (e.g.
        background workload noise), as on :meth:`ActivityChannel.run`.
        """
        engine = Engine()
        controller = self._controller(engine)
        if setup is not None:
            setup(engine, controller)
        decoded: List[int] = []
        shared_bank = 0

        for index, value in enumerate(self.values):
            window_start = index * self.window_ns
            shared_row = 4 * index          # fresh shared row per window
            sender_decoy = shared_row + 1
            receiver_decoy = shared_row + 2
            engine.schedule(
                window_start,
                lambda row=shared_row, v=value, dec=sender_decoy, rdec=receiver_decoy: (
                    self._send_then_receive(
                        controller, shared_bank, row, v, dec, rdec, decoded
                    )
                ),
                label="count-window",
            )
        total = len(self.values) * self.window_ns
        engine.run(until=total + self.window_ns)

        bits_per_symbol = max(1, int(math.log2(self.nbo)))
        sent_bits = _values_to_bits(self.values, bits_per_symbol)
        received_bits = _values_to_bits(
            decoded + [0] * (len(self.values) - len(decoded)), bits_per_symbol
        )
        return CovertChannelResult(
            sent_bits=sent_bits,
            received_bits=received_bits,
            window_ns=self.window_ns,
            elapsed_ns=len(self.values) * self.window_ns,
            symbols=len(self.values),
            bits_per_symbol=bits_per_symbol,
        )

    # ------------------------------------------------------------------
    def _send_then_receive(
        self,
        controller: MemoryController,
        bank: int,
        row: int,
        value: int,
        sender_decoy: int,
        receiver_decoy: int,
        decoded: List[int],
    ) -> None:
        sender = RowHammerSender(controller, bank=bank)

        def receive() -> None:
            # Conflict-chain accesses run ~70-90 ns; the receiver
            # calibrates its baseline online from normal completions.
            state = {"acts": 0, "done": False, "baseline": 75.0}
            target_addr = bank_address(controller, bank, row)
            decoy_addr = bank_address(controller, bank, receiver_decoy)

            def spiked(request: MemRequest) -> bool:
                hit = is_rfm_spike(
                    request.latency,
                    request.done_time,
                    controller.config.timing,
                    state["baseline"],
                )
                if not hit and request.latency <= SPIKE_THRESHOLD_NS:
                    state["baseline"] += 0.2 * (request.latency - state["baseline"])
                return hit

            def decode(acts_when_triggered: int) -> None:
                state["done"] = True
                decoded.append(self.nbo - acts_when_triggered)

            def target_done(request: MemRequest) -> None:
                if state["done"]:
                    return
                if spiked(request):
                    # The RFM delayed this activation, so the trigger
                    # was the *previous* one: sender_k + (acts-1) = N_BO.
                    decode(state["acts"] - 1)
                    return
                controller.enqueue(
                    MemRequest(
                        phys_addr=decoy_addr, core_id=1, on_complete=decoy_done
                    )
                )

            def decoy_done(request: MemRequest) -> None:
                if state["done"]:
                    return
                if spiked(request):
                    # Normal case: the target activation just before this
                    # decoy crossed N_BO: sender_k + acts = N_BO.
                    decode(state["acts"])
                    return
                probe_once()

            def probe_once() -> None:
                if state["done"]:
                    return
                if state["acts"] >= self.nbo + 8:
                    state["done"] = True
                    decoded.append(0)       # nothing fired: decode as 0
                    return
                # One activation of the shared row, forced by a decoy
                # conflict; the RFM spike can land on either access.
                state["acts"] += 1
                controller.enqueue(
                    MemRequest(
                        phys_addr=target_addr, core_id=1, on_complete=target_done
                    )
                )

            probe_once()

        if value > 0:
            sender.hammer(
                row,
                target_acts=value,
                decoy_row=sender_decoy,
                done=receive,
                close_row=row + 3,
            )
        else:
            receive()


def _values_to_bits(values: List[int], bits_per_symbol: int) -> List[int]:
    bits: List[int] = []
    for value in values:
        for position in reversed(range(bits_per_symbol)):
            bits.append((value >> position) & 1)
    return bits
