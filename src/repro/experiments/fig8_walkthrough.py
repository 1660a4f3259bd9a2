"""Figure 8: executable walkthrough of the single-entry queue defense.

Drives the paper's worked example on the real simulator: four rows
(three decoys A/B/C plus target T), a TB-Window sized for 40
activations, N_BO = 100.  Epoch by epoch the most-activated row is
tracked in the single-entry queue and mitigated at the TB-RFM; in the
final epoch all activations go to the target, which is mitigated before
it can reach N_BO — no Alert ever fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.attacks.probes import bank_address, chain_cadence_ns
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.config import small_test_config
from repro.mitigations import make_policy
from repro.experiments.registry import ArtifactSpec


@dataclass
class EpochSnapshot:
    """Row counters at the end of one TB-Window epoch."""

    epoch: int
    counters: Dict[str, int]
    mitigated: List[str] = field(default_factory=list)  # since last snapshot


@dataclass
class Fig8Result:
    snapshots: List[EpochSnapshot]
    alerts: int
    target_peak: int
    nbo: int

    @property
    def secure(self) -> bool:
        return self.alerts == 0 and self.target_peak < self.nbo

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        lines = ["epoch   A     B     C     T    mitigated-since-last"]
        for snap in self.snapshots:
            c = snap.counters
            lines.append(
                f"{snap.epoch:5d} {c.get('A', 0):5d} {c.get('B', 0):5d} "
                f"{c.get('C', 0):5d} {c.get('T', 0):5d}    "
                f"{','.join(snap.mitigated) or '-'}"
            )
        lines.append(
            f"alerts={self.alerts}  target peak={self.target_peak} "
            f"(N_BO={self.nbo})  secure={self.secure}"
        )
        return "\n".join(lines)


def run(nbo: int = 100, acts_per_window: int = 40, epochs: int = 4) -> Fig8Result:
    """Replay the Figure 8 scenario on the event-driven model."""
    config = small_test_config(rows_per_bank=64, nbo=nbo).with_prac(
        nbo=nbo, abo_act=0
    )
    # The dependent-chain attacker activates every ~70 ns; pick the
    # window so about `acts_per_window` activations fit.
    window = acts_per_window * chain_cadence_ns(config.timing)
    engine = Engine()
    policy = make_policy("tprac", tb_window=window)
    controller = MemoryController(engine, config, policy=policy, enable_refresh=False)
    names = {10: "A", 11: "B", 12: "C", 13: "T"}
    rows_by_epoch = [
        [10, 11, 12, 13],   # epoch 1: uniform over the full pool
        [11, 12, 13],       # epoch 2: A was mitigated
        [12, 13],           # epoch 3: B was mitigated
        [13],               # final epoch: all on the target
    ][:epochs]

    snapshots: List[EpochSnapshot] = []
    seen_rfms = {"count": 0}

    def mitigations_since_last() -> List[str]:
        new_records = controller.stats.rfm_records[seen_rfms["count"]:]
        seen_rfms["count"] = len(controller.stats.rfm_records)
        out = []
        for record in new_records:
            victim = record.mitigated_rows.get(0)
            if victim is not None and victim in names:
                out.append(names[victim])
        return out

    state = {"epoch": 0, "sent": 0}
    bank = controller.channel.bank(0)

    def issue(req=None) -> None:
        epoch = state["epoch"]
        if epoch >= len(rows_by_epoch):
            return
        rows = rows_by_epoch[epoch]
        if state["sent"] >= acts_per_window:
            snapshots.append(
                EpochSnapshot(
                    epoch=epoch + 1,
                    counters={n: bank.counter(r) for r, n in names.items()},
                    mitigated=mitigations_since_last(),
                )
            )
            state["epoch"] += 1
            state["sent"] = 0
            # Wait out the rest of the window before the next epoch.
            engine.schedule_after(window / 4, issue)
            return
        row = rows[state["sent"] % len(rows)]
        state["sent"] += 1
        controller.enqueue(
            MemRequest(phys_addr=bank_address(controller, 0, row), on_complete=issue)
        )

    issue()
    engine.run(until=(epochs + 2) * window)
    target_peak = max(
        [snap.counters.get("T", 0) for snap in snapshots] or [0]
    )
    return Fig8Result(
        snapshots=snapshots,
        alerts=controller.abo.alert_count,
        target_peak=target_peak,
        nbo=nbo,
    )


ARTIFACT = ArtifactSpec(
    name="fig8",
    artifact="Figure 8",
    title="Executable walkthrough of the single-entry queue defense",
    module="repro.experiments.fig8_walkthrough",
)
