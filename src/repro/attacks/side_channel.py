"""PRACLeak side-channel attack on AES T-tables (Section 3.3).

Attack flow, per secret key byte ``k_t``:

1. **Victim phase** — the attacker triggers ``n`` encryptions with
   plaintext byte ``p_t`` fixed and all other bytes random, flushing
   the T-table lines so every first-round lookup reaches DRAM.  The
   cache line indexed by ``x_t = p_t XOR k_t`` is accessed once per
   encryption deterministically, so its DRAM row accumulates roughly
   double the activations of the other 15 rows (Figure 4, top ~207 vs
   ~40 at 200 encryptions).
2. **Probe phase** — the attacker sequentially activates the 16 rows
   of the target table in a loop until one access observes the
   ABO-RFM's latency spike.  The row activated immediately before the
   spike is the one whose combined (victim + attacker) count crossed
   N_BO: the hottest row.  Its index reveals ``x_t >> 4`` and hence the
   top 4 bits of ``k_t`` (Figure 5); over all 16 bytes, 64 of 128 key
   bits.

With TPRAC enabled, the first observed RFM is a Timing-Based RFM whose
position in the probe loop is unrelated to the key, so the recovered
index carries no information (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.attacks.probes import SPIKE_THRESHOLD_NS, bank_address, is_rfm_spike
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.crypto.victim import AesVictim, TTableLayout
from repro.dram.config import DramConfig, ddr5_8000b
from repro.mitigations import make_policy
from repro.analysis.tb_window import required_tb_window


@dataclass
class SideChannelResult:
    """Outcome of one attack instance (one key byte)."""

    target_byte: int
    fixed_plaintext: int
    true_nibble: int            # ground truth: top 4 bits of k_t
    recovered_nibble: Optional[int]
    trigger_row: Optional[int]  # row (0..15 within table) blamed for the RFM
    attacker_acts_on_trigger: int
    victim_histogram: Dict[int, int]
    encryptions: int
    probe_timeline: List[tuple] = field(default_factory=list)  # (t, latency)
    activation_timeline: List[tuple] = field(default_factory=list)
    rfm_times: List[float] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.recovered_nibble == self.true_nibble


class AesSideChannelAttack:
    """Drives the full two-phase attack on the simulated system."""

    def __init__(
        self,
        key: bytes,
        nbo: int = 256,
        prac_level: int = 1,
        encryptions: int = 200,
        defense: Optional[str] = None,
        tb_window: Optional[float] = None,
        seed: int = 99,
        config: Optional[DramConfig] = None,
        record_timeline: bool = False,
        abo_act: int = 0,
    ) -> None:
        """``defense=None`` runs against ABO-Only; ``"tprac"`` enables TPRAC
        (with a TB-Window solved for this N_BO unless given).

        ``abo_act`` is the JEDEC grace-activation count (Table 1 allows
        up to 3).  No attribution correction is needed even at the spec
        maximum: a dependent-chain prober needs ~70 ns per activation,
        so the tABOACT deadline (180 ns) forces the RFM out before the
        three grace activations can complete — the last completed probe
        before the spike is still the triggering one.
        """
        self.key = bytes(key)
        self.nbo = nbo
        self.prac_level = prac_level
        self.encryptions = encryptions
        self.defense = defense
        self.seed = seed
        self.record_timeline = record_timeline
        self.abo_act = abo_act
        self.config = (config or ddr5_8000b()).with_prac(
            nbo=nbo, prac_level=prac_level, abo_act=abo_act
        )
        if defense not in (None, "tprac"):
            raise ValueError("defense must be None or 'tprac'")
        if defense == "tprac" and tb_window is None:
            tb_window = required_tb_window(self.config, nbo, with_reset=True)
        self.tb_window = tb_window

    # ------------------------------------------------------------------
    def _build(self) -> MemoryController:
        engine = Engine()
        if self.defense == "tprac":
            policy = make_policy("tprac", tb_window=self.tb_window)
        else:
            policy = make_policy("abo_only")
        return MemoryController(engine, self.config, policy=policy)

    def run_single(
        self, target_byte: int = 0, fixed_value: int = 0
    ) -> SideChannelResult:
        """Attack one key byte: victim phase then probe phase."""
        controller = self._build()
        engine = controller.engine
        layout = TTableLayout(bank=0, base_row=0)
        victim = AesVictim(self.key, layout=layout, seed=self.seed)
        rows, histogram = victim.first_round_rows(
            target_byte, fixed_value, self.encryptions
        )

        table = target_byte % 4
        table_rows = layout.table_rows(table)
        base_row = table_rows[0]
        probe_state = {
            "index": 0,
            "acts": {row: 0 for row in table_rows},
            "history": [],         # (time, row) of completed probes
            "trigger_row": None,
            "done": False,
            "baseline": 75.0,      # online-calibrated normal latency
        }
        result_timeline: List[tuple] = []
        act_timeline: List[tuple] = []

        # ---- victim phase: replay the first-round row stream ---------
        def victim_issue(position: int = 0) -> None:
            if position >= len(rows):
                engine.schedule(engine.now, probe_issue, label="probe-start")
                return
            addr = bank_address(controller, layout.bank, rows[position])
            controller.enqueue(
                MemRequest(
                    phys_addr=addr,
                    core_id=0,
                    on_complete=lambda _r: victim_issue(position + 1),
                )
            )

        # ---- probe phase: round-robin over the 16 table rows ---------
        def probe_issue(request: Optional[MemRequest] = None) -> None:
            if probe_state["done"]:
                return
            if request is not None:
                now = request.done_time
                latency = request.latency
                if self.record_timeline:
                    result_timeline.append((now, latency))
                    bank = controller.channel.bank(
                        request.addr.flat_bank(self.config.organization)
                    )
                    act_timeline.append(
                        (now, dict((r, bank.counter(r)) for r in table_rows))
                    )
                spiked = is_rfm_spike(
                    latency, now, self.config.timing, probe_state["baseline"]
                )
                if not spiked and latency <= SPIKE_THRESHOLD_NS:
                    probe_state["baseline"] += 0.2 * (
                        latency - probe_state["baseline"]
                    )
                if spiked:
                    history = probe_state["history"]
                    probe_state["trigger_row"] = history[-1][1] if history else None
                    probe_state["done"] = True
                    return
                probe_state["history"].append((now, request.meta["probe_row"]))
                probe_state["acts"][request.meta["probe_row"]] += 1
                if probe_state["acts"][base_row] > self.nbo + 4:
                    probe_state["done"] = True   # nothing fired; give up
                    return
            row = table_rows[probe_state["index"] % len(table_rows)]
            probe_state["index"] += 1
            req = MemRequest(
                phys_addr=bank_address(controller, layout.bank, row),
                core_id=1,
                on_complete=probe_issue,
                meta={"probe_row": row},
            )
            controller.enqueue(req)

        victim_issue()
        engine.run(until=80_000_000)  # hard stop at 80 ms of simulated time

        trigger = probe_state["trigger_row"]
        recovered = None
        acts_on_trigger = 0
        if trigger is not None:
            line = trigger - base_row
            recovered = line ^ (fixed_value >> 4)
            acts_on_trigger = probe_state["acts"][trigger]
        return SideChannelResult(
            target_byte=target_byte,
            fixed_plaintext=fixed_value,
            true_nibble=self.key[target_byte] >> 4,
            recovered_nibble=recovered,
            trigger_row=(trigger - base_row) if trigger is not None else None,
            attacker_acts_on_trigger=acts_on_trigger,
            victim_histogram=histogram,
            encryptions=self.encryptions,
            probe_timeline=result_timeline,
            activation_timeline=act_timeline,
            rfm_times=controller.stats.rfm_records.times.tolist(),
        )

    # ------------------------------------------------------------------
    def run_key_sweep(
        self, key_values: Optional[List[int]] = None
    ) -> List[SideChannelResult]:
        """Figures 5 and 9: sweep key byte 0, attack each value with
        plaintext byte 0 fixed to 0."""
        key_values = key_values if key_values is not None else list(range(0, 256, 16))
        results = []
        for value in key_values:
            key = bytearray(self.key)
            key[0] = value
            attack = AesSideChannelAttack(
                bytes(key),
                nbo=self.nbo,
                prac_level=self.prac_level,
                encryptions=self.encryptions,
                defense=self.defense,
                tb_window=self.tb_window,
                seed=self.seed + value,
                record_timeline=False,
                abo_act=self.abo_act,
            )
            results.append(attack.run_single(0, 0))
        return results


