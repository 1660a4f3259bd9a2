"""Executable Feinting attack against the live simulator.

The analytical model (:mod:`repro.analysis.feinting`) predicts the
worst-case activations TMAX an adversary can land on one row under
TPRAC.  This module *runs* the attack: a round-based driver that
uniformly activates a decoy pool plus a target row, drops mitigated
rows from the pool, and finally concentrates on the target — then
reports the target's actual peak counter for comparison against the
analytical bound.  Used by tests and the ablation benches to confirm
the simulator never exceeds the theory (the theory is a worst case, so
``measured <= analytical`` must hold; a violation would mean a bug in
either the model or the defense).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.analysis.feinting import feinting_target_acts
from repro.attacks.probes import bank_address
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.config import DramConfig, small_test_config
from repro.mitigations import make_policy


@dataclass
class FeintingRunResult:
    """Outcome of one executed Feinting attack."""

    pool_size: int
    tb_window: float
    target_peak: int          # max counter the target row ever reached
    analytical_tmax: int      # the model's bound for this configuration
    alerts: int
    rounds_executed: int
    mitigations: int

    @property
    def within_bound(self) -> bool:
        return self.target_peak <= self.analytical_tmax

    @property
    def defense_held(self) -> bool:
        return self.alerts == 0


class FeintingAttack:
    """Round-based Feinting driver (Section 4.2.1 pattern)."""

    def __init__(
        self,
        pool_size: int = 16,
        tb_window: Optional[float] = None,
        nbo: int = 10_000,
        config: Optional[DramConfig] = None,
        max_rounds: int = 4096,
    ) -> None:
        self.config = (config or small_test_config(rows_per_bank=4096)).with_prac(
            nbo=nbo, abo_act=0
        )
        timing = self.config.timing
        chain_ns = (timing.tRCD + timing.tCL + timing.tBL) + timing.tRP
        # Default window: ~24 activations per window at the chain cadence.
        self.tb_window = tb_window if tb_window is not None else 24 * chain_ns
        self.pool_size = pool_size
        self.max_rounds = max_rounds
        self.target_row = 0
        self.decoy_rows = list(range(1, pool_size))

    # ------------------------------------------------------------------
    def run(self) -> FeintingRunResult:
        """Run the experiment at the configured scale; returns the result object."""
        engine = Engine()
        policy = make_policy("tprac", tb_window=self.tb_window)
        controller = MemoryController(
            engine, self.config, policy=policy, enable_refresh=False
        )
        bank = controller.channel.bank(0)
        state = {
            "pool": [self.target_row] + list(self.decoy_rows),
            "cursor": 0,
            "rounds": 0,
            "target_peak": 0,
            "final_acts": 0,
            "phase": "feint",
        }
        mitigated_seen: Set[int] = set()
        acts_per_window = max(1, int(self.tb_window // 70.0))

        def note_mitigations() -> None:
            for record in controller.stats.rfm_records:
                victim = record.mitigated_rows.get(0)
                if victim is not None:
                    mitigated_seen.add(victim)

        def issue(req=None) -> None:
            state["target_peak"] = max(
                state["target_peak"], bank.counter(self.target_row)
            )
            if state["phase"] == "done":
                return
            if state["phase"] == "final":
                if state["final_acts"] >= acts_per_window + 4:
                    state["phase"] = "done"
                    # The target's peak is in: the rest would be TB-RFMs
                    # on an idle bank.
                    engine.request_stop()
                    return
                state["final_acts"] += 1
                row = (
                    self.target_row
                    if state["final_acts"] % 2
                    else self.decoy_rows[0] + self.pool_size  # fresh conflictor
                )
                controller.enqueue(
                    MemRequest(
                        phys_addr=bank_address(controller, 0, row), on_complete=issue
                    )
                )
                return
            # Feinting phase: activate the surviving pool uniformly.
            note_mitigations()
            pool = [
                row
                for row in state["pool"]
                if row == self.target_row or row not in mitigated_seen
            ]
            state["pool"] = pool
            if len(pool) <= 1 or state["rounds"] >= self.max_rounds:
                state["phase"] = "final"
                engine.schedule(engine.now, issue)
                return
            row = pool[state["cursor"] % len(pool)]
            state["cursor"] += 1
            if state["cursor"] % len(pool) == 0:
                state["rounds"] += 1
            controller.enqueue(
                MemRequest(
                    phys_addr=bank_address(controller, 0, row), on_complete=issue
                )
            )

        issue()
        # Caps only: the attack stops the engine once it is done.
        engine.run(until=500_000_000, max_events=20_000_000)
        state["target_peak"] = max(
            state["target_peak"], bank.counter(self.target_row)
        )
        analytical = feinting_target_acts(self.pool_size, acts_per_window)
        return FeintingRunResult(
            pool_size=self.pool_size,
            tb_window=self.tb_window,
            target_peak=state["target_peak"],
            analytical_tmax=analytical,
            alerts=controller.abo.alert_count,
            rounds_executed=state["rounds"],
            mitigations=policy.mitigations_performed,
        )
