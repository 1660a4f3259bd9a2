"""Obfuscation defense (Section 7.1): random RFM injection.

Instead of eliminating ABO-RFMs, inject decoy RFMabs with probability
:data:`INJECT_PROB` per tREFI so an attacker cannot tell a legitimate
(activity-dependent) RFM from noise.  The paper notes this only
*degrades* the channel: long-horizon RFM-count profiling still
separates the distributions (zero observed RFMs definitively means no
activity; counts far above the injection baseline definitively mean
activity).  :mod:`repro.analysis.obfuscation_analysis` quantifies the
residual leakage via distribution overlap.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.dram.commands import RfmProvenance
from repro.mitigations.base import MitigationPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController

#: Probability of a decoy RFMab per tREFI (Section 7.1's p = 0.5).
INJECT_PROB = 0.5


class ObfuscationPolicy(MitigationPolicy):
    """ABO kept enabled; decoy RFMs injected at random."""

    name = "obfuscation"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.random_rfms_injected = 0
        self._rng = random.Random(seed)

    def on_attached(self, controller: "MemoryController") -> None:
        self._arm(controller)

    def _arm(self, controller: "MemoryController") -> None:
        controller.engine.schedule_after(
            controller.config.timing.tREFI,
            lambda: self._tick(controller),
            priority=-1,
            label="obf-tick",
        )

    def _tick(self, controller: "MemoryController") -> None:
        if self._rng.random() < INJECT_PROB:
            self.random_rfms_injected += 1
            controller.request_rfm(RfmProvenance.RANDOM)
        self._arm(controller)
