"""The attack harnesses run clean under the DRAM protocol sanitizer.

Every harness builds bare ``MemoryController``s on the default system,
so patching ``repro.controller.controller.DEFAULT_SYSTEM`` to
``SystemConfig(sanitize=True)`` attaches the one timing checker to
each controller it builds, with no option of its own.  A broken rule
raises ``ProtocolViolation`` mid-run.  The checkers count the commands
they observe, so the test also fails if the patch stops applying.
"""

import pytest

from repro.attacks.acb_channel import AcbRfmChannel
from repro.attacks.feinting_sim import FeintingAttack
from repro.attacks.side_channel import AesSideChannelAttack
from repro.config import SystemConfig
from repro.controller import controller as controller_mod
from repro.dram.sanitizer import ProtocolChecker
from repro.experiments import (
    fig3_latency,
    fig8_walkthrough,
    obfuscation_defense,
    table2_covert,
)

KEY = bytes.fromhex("372a1f0c5b6e9d804142434445464748")
MESSAGE = [1, 0, 1, 1, 0, 0, 1, 0]

HARNESSES = {
    "table2": lambda: table2_covert.run(**table2_covert.ARTIFACT.kwargs()),
    "fig3": lambda: fig3_latency.run(**fig3_latency.ARTIFACT.kwargs()),
    "obfuscation": lambda: obfuscation_defense.run(bits=4),
    "acb_rfm": lambda: AcbRfmChannel(message=MESSAGE, defense="acb").run(),
    "acb_tprac": lambda: AcbRfmChannel(message=MESSAGE, defense="tprac").run(),
    "feinting": lambda: FeintingAttack(pool_size=16, nbo=200).run(),
    "fig8": fig8_walkthrough.run,
    "aes_abo_only": lambda: AesSideChannelAttack(KEY, encryptions=80).run_single(
        target_byte=0, fixed_value=0
    ),
    # 80 ms of TB-RFMs and REFs on a mostly idle channel.
    "aes_tprac": lambda: AesSideChannelAttack(
        KEY, encryptions=80, defense="tprac"
    ).run_single(target_byte=0, fixed_value=0),
}


@pytest.mark.parametrize("name", list(HARNESSES))
def test_harness_is_timing_clean(name, monkeypatch):
    checkers = []

    class CountingChecker(ProtocolChecker):
        """The sanitizer, recording itself and the commands it observes."""

        def __init__(self, config):
            super().__init__(config)
            self.observed = 0
            checkers.append(self)

        def observe_command(self, command):
            self.observed += 1
            super().observe_command(command)

    monkeypatch.setattr(
        controller_mod, "DEFAULT_SYSTEM", SystemConfig(sanitize=True)
    )
    monkeypatch.setattr(controller_mod, "ProtocolChecker", CountingChecker)
    HARNESSES[name]()
    assert checkers, "no controller was built sanitized"
    assert sum(checker.observed for checker in checkers) > 0
