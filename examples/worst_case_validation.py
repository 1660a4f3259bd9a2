#!/usr/bin/env python3
"""Worst-case validation: run the attacks the analysis only predicts.

Three checks that tie the analytical security model to the live
simulator:

1. **Feinting, executed** — drive the paper's worst-case access
   pattern against TPRAC and compare the target row's measured peak
   counter with the Equations-(2)-(5) bound.
2. **Safety monitor** — assert no row ever reaches the RowHammer
   threshold while TPRAC runs, under hammering.
3. **ACB-RFM channel (Figure 2(b))** — show that even the JEDEC
   Targeted-RFM flow leaks activity levels, and that TPRAC flattens
   the observable RFM counts.

Run:  python examples/worst_case_validation.py
"""

from repro.analysis.safety import SafetyMonitor
from repro.attacks.acb_channel import AcbRfmChannel
from repro.attacks.feinting_sim import FeintingAttack
from repro.attacks.probes import bank_address
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.config import small_test_config
from repro.mitigations.tprac import TpracPolicy


def feinting_check() -> None:
    print("=== 1. Executed Feinting vs analytical TMAX ===")
    print("pool   measured-peak   analytical-bound   alerts")
    for pool in (8, 16, 32):
        result = FeintingAttack(pool_size=pool).run()
        verdict = "ok" if result.within_bound and result.defense_held else "VIOLATION"
        print(f"{pool:4d}   {result.target_peak:13d}   {result.analytical_tmax:16d}"
              f"   {result.alerts:6d}   {verdict}")


def safety_check() -> None:
    print("\n=== 2. RowHammer safety under sustained hammering ===")
    nbo = 64
    config = small_test_config(nbo=nbo).with_prac(nbo=nbo, abo_act=0)
    controller = MemoryController(
        Engine(), config, policy=TpracPolicy(tb_window=1500.0),
        enable_refresh=False,
    )
    monitor = SafetyMonitor(controller.channel, threshold=nbo)
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= 1000:
            return
        row = 10 if state["n"] % 2 else 11
        state["n"] += 1
        controller.enqueue(
            MemRequest(phys_addr=bank_address(controller, 0, row), on_complete=issue)
        )

    issue()
    controller.engine.run(until=200_000_000)
    print(f"1000 hammering accesses on a row pair: {monitor.report()}")


def acb_check() -> None:
    print("\n=== 3. ACB-RFM activity channel (Figure 2(b)) ===")
    message = [1, 0, 1, 1, 0, 0, 1, 0]
    for defense in ("acb", "tprac"):
        result = AcbRfmChannel(message=message, defense=defense).run()
        print(f"{defense:6s}: sent={message} recv={result.received_bits} "
              f"err={result.error_rate:.2f} counts={result.rfm_counts_per_window}")
    print("=> ACB-RFM counts mirror the sender's activity; TPRAC's are flat.")


def main() -> None:
    feinting_check()
    safety_check()
    acb_check()


if __name__ == "__main__":
    main()
