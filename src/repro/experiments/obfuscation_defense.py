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
from repro.dram.config import ddr5_8000b
from repro.experiments.registry import ArtifactSpec
from repro.mitigations.obfuscation import INJECT_PROB

#: Table row -> the mitigation the channel runs against.
DEFENSES = {"none": "abo_only", "obfuscation": "obfuscation", "tprac": "tprac"}


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
            f"analytical residual distinguishability at p={INJECT_PROB:g}: "
            f"TV={self.analytical.total_variation:.3f}, "
            f"optimal accuracy={self.analytical.classifier_accuracy:.3f}"
        )
        return "\n".join(lines)


def run(nbo: int = 256, bits: int = 12, seed: int = 21) -> ObfuscationResult:
    """Run the experiment at the configured scale; returns the result object."""
    rng = random.Random(seed)
    message = [rng.randrange(2) for _ in range(bits)]
    outcomes = [_channel_against(message, nbo, defense) for defense in DEFENSES]
    windows_per_decision = max(
        1, int(ActivityChannel(message=[0], nbo=nbo).window_ns
               // ddr5_8000b().timing.tREFI)
    )
    return ObfuscationResult(
        outcomes=outcomes,
        analytical=analyze(
            windows=windows_per_decision, inject_prob=INJECT_PROB, signal_rfms=1
        ),
    )


def _channel_against(message: List[int], nbo: int, defense: str) -> DefenseOutcome:
    """Run the activity channel against one defense configuration."""
    channel = ActivityChannel(
        message=message, nbo=nbo, mitigation=DEFENSES[defense], seed=5
    )
    result = channel.run()
    return DefenseOutcome(
        defense=defense,
        error_rate=result.error_rate,
        rfms_observed=channel.spikes_observed,
    )


ARTIFACT = ArtifactSpec(
    name="obfuscation",
    artifact="Section 7.1",
    title="Random-RFM obfuscation defense trade-off",
    module="repro.experiments.obfuscation_defense",
    quick=dict(bits=10),
)
