"""Section 7.1: the obfuscation (random-RFM) defense, empirically.

Runs the activity-based covert channel against three configurations —
undefended, random injection, and TPRAC — and reports the channel's
error rate alongside the analytical distinguishability bound.  The
paper's point: injection degrades the naive channel but leaves a
statistical residue, while TPRAC removes the activity dependence
entirely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.analysis.obfuscation_analysis import ObfuscationLeakage, analyze
from repro.attacks.covert import ActivityChannel
from repro.attacks.probes import LatencyProbe, RowHammerSender, is_rfm_spike
from repro.controller.controller import MemoryController
from repro.core.engine import Engine
from repro.dram.config import ddr5_8000b
from repro.mitigations import make_policy, policy_factory
from repro.experiments.registry import ArtifactSpec


@dataclass
class DefenseOutcome:
    defense: str
    error_rate: float
    rfms_observed: int


@dataclass
class ObfuscationResult:
    outcomes: List[DefenseOutcome]
    analytical: ObfuscationLeakage

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        lines = ["defense       channel-error   RFMs-observed"]
        for o in self.outcomes:
            lines.append(
                f"{o.defense:12s}  {o.error_rate:13.3f}   {o.rfms_observed:13d}"
            )
        lines.append(
            f"analytical residual distinguishability at p=0.5: "
            f"TV={self.analytical.total_variation:.3f}, "
            f"optimal accuracy={self.analytical.classifier_accuracy:.3f}"
        )
        return "\n".join(lines)


def run(
    nbo: int = 256,
    bits: int = 12,
    inject_prob: float = 0.5,
    seed: int = 21,
) -> ObfuscationResult:
    """Run the experiment at the configured scale; returns the result object."""
    rng = random.Random(seed)
    message = [rng.randrange(2) for _ in range(bits)]
    outcomes = [
        _channel_against(message, nbo, "none", inject_prob),
        _channel_against(message, nbo, "obfuscation", inject_prob),
        _channel_against(message, nbo, "tprac", inject_prob),
    ]
    windows_per_decision = max(
        1, int(ActivityChannel(nbo=nbo, message=[0]).window_ns
               // ddr5_8000b().timing.tREFI)
    )
    return ObfuscationResult(
        outcomes=outcomes,
        analytical=analyze(
            windows=windows_per_decision, inject_prob=inject_prob, signal_rfms=1
        ),
    )


def _channel_against(
    message: List[int], nbo: int, defense: str, inject_prob: float
) -> DefenseOutcome:
    """Run the activity channel against one defense configuration."""
    channel = ActivityChannel(nbo=nbo, message=message)
    config = channel.config
    engine = Engine()
    if defense == "none":
        policy = make_policy("abo_only")
    elif defense == "obfuscation":
        policy = make_policy("obfuscation", inject_prob=inject_prob, seed=5)
    elif defense == "tprac":
        policy = policy_factory("tprac", config)()
    else:
        raise ValueError(defense)
    controller = MemoryController(engine, config, policy=policy)
    sender = RowHammerSender(controller, bank=0, core_id=0)
    probe = LatencyProbe(controller, bank=4, mode="same_row", core_id=1)
    probe.start()
    for index, bit in enumerate(message):
        if bit:
            engine.schedule(
                index * channel.window_ns,
                lambda r=2 * index: sender.hammer(
                    r, target_acts=nbo, decoy_row=r + 1
                ),
            )
    engine.run(until=(len(message) + 1) * channel.window_ns)
    probe.stop()

    timing = config.timing
    rfm_times = [
        t
        for t, lat in zip(probe.result.times, probe.result.latencies)
        if is_rfm_spike(lat, t, timing, channel.spike_threshold_ns)
    ]
    decoded = []
    for index in range(len(message)):
        lo = index * channel.window_ns
        hi = lo + channel.window_ns
        decoded.append(1 if any(lo <= t < hi for t in rfm_times) else 0)
    errors = sum(1 for s, r in zip(message, decoded) if s != r)
    return DefenseOutcome(
        defense=defense,
        error_rate=errors / len(message),
        rfms_observed=len(rfm_times),
    )


ARTIFACT = ArtifactSpec(
    name="obfuscation",
    artifact="Section 7.1",
    title="Random-RFM obfuscation defense trade-off",
    module="repro.experiments.obfuscation_defense",
    quick=dict(bits=10),
)
