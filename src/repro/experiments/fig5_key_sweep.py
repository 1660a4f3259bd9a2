"""Figure 5: key-byte sweep of the AES side channel (no defense).

(a) victim activations per DRAM row after 200 encryptions, as the
secret key byte k0 varies — the hot row tracks k0's top nibble;
(b) the attacker activations on the row that triggers the first ABO —
victim + attacker activations sum to exactly N_BO, and the row index
leaks the key nibble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.attacks.side_channel import AesSideChannelAttack, SideChannelResult
from repro.experiments.registry import ArtifactSpec


@dataclass
class Fig5Result:
    results: List[SideChannelResult]

    @property
    def recovery_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.success) / len(self.results)

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        lines = ["k0    true  hot-row(victim)  trigger-row  atk-acts  ok"]
        for r in self.results:
            hot = (
                min(r.victim_histogram, key=lambda k: (-r.victim_histogram[k], k))
                if r.victim_histogram
                else -1
            )
            lines.append(
                f"{r.fixed_plaintext ^ (r.true_nibble << 4):<5d} "
                f"{r.true_nibble:4d}  {hot:15d}  "
                f"{r.trigger_row if r.trigger_row is not None else -1:11d}  "
                f"{r.attacker_acts_on_trigger:8d}  {'Y' if r.success else 'n'}"
            )
        lines.append(f"recovery rate: {self.recovery_rate:.2f}")
        return "\n".join(lines)


def run(
    key_values: Optional[Sequence[int]] = None,
    nbo: int = 256,
    encryptions: int = 200,
    defense: Optional[str] = None,
) -> Fig5Result:
    """Sweep k0 (default: one value per nibble bucket, 0..240)."""
    key_values = list(key_values if key_values is not None else range(0, 256, 16))
    attack = AesSideChannelAttack(
        bytes(16),
        nbo=nbo,
        prac_level=1,
        encryptions=encryptions,
        defense=defense,
    )
    return Fig5Result(
        results=attack.run_key_sweep(key_values)
    )


ARTIFACT = ArtifactSpec(
    name="fig5",
    artifact="Figure 5",
    title="Key-byte sweep: victim histograms + trigger rows",
    module="repro.experiments.fig5_key_sweep",
    quick=dict(key_values=(0, 96, 224), encryptions=120),
)
