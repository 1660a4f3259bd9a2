"""Figure 4: one AES side-channel attack instance, with timelines.

For p0 = 0 and k0 = 0: the victim's 200 encryptions put roughly double
activations on Row-0 of T-table 0; the attacker's probe loop then
triggers the ABO on Row-0 after N_BO minus the victim's count further
activations, observed as a latency spike.  The paper's instance has 207
victim activations on Row-0 and the ABO after 49 attacker activations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.side_channel import AesSideChannelAttack, SideChannelResult
from repro.experiments.registry import ArtifactSpec


@dataclass
class Fig4Result:
    attack: SideChannelResult

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        r = self.attack
        hot = max(r.victim_histogram.values()) if r.victim_histogram else 0
        others = [
            v
            for row, v in r.victim_histogram.items()
            if v != hot or row != min(
                r.victim_histogram, key=lambda k: (-r.victim_histogram[k], k)
            )
        ]
        mean_other = sum(others) / len(others) if others else 0.0
        lines = [
            f"victim encryptions          : {r.encryptions}",
            f"hot-row victim accesses     : {hot}",
            f"other-rows mean accesses    : {mean_other:.1f}",
            f"attacker acts to trigger    : {r.attacker_acts_on_trigger}",
            f"row triggering first ABO    : {r.trigger_row}",
            f"recovered key nibble        : {r.recovered_nibble}"
            f" (truth {r.true_nibble})",
            f"RFMs observed               : {len(r.rfm_times)}",
        ]
        return "\n".join(lines)


def run(
    key_byte: int = 0x00,
    nbo: int = 256,
    encryptions: int = 200,
    record_timeline: bool = True,
) -> Fig4Result:
    """Reproduce the Figure 4 instance (p0=0, k0 configurable)."""
    key = bytes([key_byte]) + bytes(15)
    attack = AesSideChannelAttack(
        key,
        nbo=nbo,
        prac_level=1,
        encryptions=encryptions,
        record_timeline=record_timeline,
    )
    return Fig4Result(attack=attack.run_single(target_byte=0, fixed_value=0))


ARTIFACT = ArtifactSpec(
    name="fig4",
    artifact="Figure 4",
    title="AES side-channel attack timeline (p0=0, k0=0)",
    module="repro.experiments.fig4_side_channel",
    quick=dict(encryptions=150, record_timeline=False),
)
