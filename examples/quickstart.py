#!/usr/bin/env python3
"""Quickstart: simulate a PRAC-enabled DDR5 system and watch the
Alert Back-Off protocol create an observable timing channel.

This builds the full stack from the public API:

1. a DDR5-8000B device with PRAC counters (N_BO = 256),
2. a memory controller with the ABO-Only mitigation policy,
3. a "victim" hammering one row pair, and
4. an "attacker" latency probe in a different bank.

The probe never touches the victim's rows, yet it sees the victim's
activity as a latency spike — the paper's core observation.

Run:  python examples/quickstart.py
"""

from repro import Engine, MemoryController, AboOnlyPolicy, ddr5_8000b
from repro.attacks.probes import LatencyProbe, RowHammerSender, is_rfm_spike


def main() -> None:
    nbo = 256
    config = ddr5_8000b().with_prac(nbo=nbo, prac_level=1, abo_act=0)
    engine = Engine()
    controller = MemoryController(engine, config, policy=AboOnlyPolicy())

    # Attacker: closed-loop latency probe on bank 4, row-buffer hits
    # only (its own PRAC counters never move).
    probe = LatencyProbe(controller, bank=4)
    probe.start()

    # Victim: hammer rows 10/11 of bank 0 to the Back-Off threshold.
    sender = RowHammerSender(controller, bank=0)
    engine.schedule(5_000.0, lambda: sender.hammer(10, target_acts=nbo, decoy_row=11))

    engine.run(until=60_000.0)
    probe.stop()

    print(f"simulated {engine.now / 1000:.1f} us; "
          f"probe completed {len(probe.result.latencies)} accesses")
    print(f"victim row-10 activations: {controller.channel.bank(0).counter(10)} "
          f"(mitigated on ABO)")
    print(f"ABO alerts: {controller.abo.alert_count}, "
          f"RFMs issued: {controller.stats.rfm_count()}")

    spikes = [
        (t, lat)
        for t, lat in zip(probe.result.times, probe.result.latencies)
        if is_rfm_spike(lat, t, config.timing)
    ]
    print(f"\nattacker-visible RFM spikes ({len(spikes)}):")
    for t, lat in spikes[:5]:
        print(f"  t={t/1000:8.2f} us   latency={lat:6.0f} ns "
              f"(baseline ~{probe.result.mean_latency:.0f} ns)")
    if spikes:
        print("\n=> the victim's row activations are visible system-wide: "
              "this is the PRACLeak timing channel.")


if __name__ == "__main__":
    main()
