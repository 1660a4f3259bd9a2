"""The Alert Back-Off (ABO) protocol state machine.

When any row's PRAC counter reaches the Back-Off threshold (N_BO), the
DRAM asserts the Alert pin.  The memory controller may issue up to
``ABO_ACT`` more activations (bounded by tABOACT = 180 ns), then must
enter the mitigation period and issue ``N_mit`` (the "PRAC level": 1, 2
or 4) RFMab commands, each blocking the channel for tRFMab = 350 ns.
After the RFMs, a new Alert cannot fire until ``ABO_delay`` (= N_mit)
further activations have occurred.

This state machine is device-side: it watches bank activations and
tells the memory controller *when an RFM burst is due*.  The controller
(:mod:`repro.controller.controller`) performs the actual blocking and
asks the mitigation policy which rows to mitigate.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.dram.bank import Bank
from repro.dram.config import DramConfig
from repro.dram.rank import Channel


class AboState(enum.Enum):
    """Protocol phases."""

    IDLE = "idle"              # no Alert pending
    ALERTED = "alerted"        # Alert asserted; grace ACTs allowed
    RECOVERY = "recovery"      # RFMs done; ABO_delay ACTs before re-Alert


class AboProtocol:
    """Watches all banks; raises Alert when a counter reaches N_BO."""

    def __init__(
        self,
        config: DramConfig,
        channel: Channel,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config
        self.channel = channel
        self._clock = clock
        self.state = AboState.IDLE
        self.alerting_bank: Optional[int] = None
        self.alerting_row: Optional[int] = None
        self.grace_acts_left = 0
        self.recovery_acts_left = 0
        self.alert_count = 0
        # Maintained flags (plain attributes, not properties): the
        # controller reads these once per wake and per serve, so they
        # are updated at each state transition instead of recomputed.
        #: True while the Alert pin is asserted (state is ALERTED)
        self.alert_pending = False
        #: True once the grace activations are exhausted
        self.must_mitigate_now = False
        #: controller registers a callback fired when Alert asserts:
        #: f(time, bank_id, row)
        self.on_alert: List[Callable[[float, int, int], None]] = []
        #: fired when the controller reports the RFM burst done and the
        #: protocol leaves ALERTED: f(time)
        self.on_mitigated: List[Callable[[float], None]] = []
        for bank in channel:
            bank.on_activate(self._observe_activation)

    # ------------------------------------------------------------------
    def _observe_activation(self, bank: Bank, row: int, count: int) -> None:
        prac = self.config.prac
        if self.state is AboState.ALERTED:
            self.grace_acts_left -= 1
            if self.grace_acts_left <= 0:
                self.must_mitigate_now = True
            return
        if self.state is AboState.RECOVERY:
            self.recovery_acts_left -= 1
            if self.recovery_acts_left <= 0:
                self.state = AboState.IDLE
            else:
                return
        if count >= prac.nbo:
            self._assert_alert(bank.bank_id, row)

    def _assert_alert(self, bank_id: int, row: int) -> None:
        prac = self.config.prac
        self.state = AboState.ALERTED
        self.alerting_bank = bank_id
        self.alerting_row = row
        self.grace_acts_left = prac.abo_act
        self.alert_pending = True
        self.must_mitigate_now = prac.abo_act <= 0
        self.alert_count += 1
        for hook in self.on_alert:
            hook(self._now(), bank_id, row)

    def _now(self) -> float:
        """Current simulation time, or 0.0 when used clocklessly."""
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Controller-side notifications
    # ------------------------------------------------------------------
    def rfm_burst_size(self) -> int:
        """Number of RFMab commands the controller must issue (N_mit)."""
        return self.config.prac.prac_level

    def mitigation_done(self) -> None:
        """Controller finished the N_mit RFMabs for the current Alert."""
        if self.state is not AboState.ALERTED:
            raise RuntimeError("mitigation_done() without a pending Alert")
        self.state = AboState.RECOVERY
        self.recovery_acts_left = self.config.prac.abo_delay
        self.alerting_bank = None
        self.alerting_row = None
        self.alert_pending = False
        self.must_mitigate_now = False
        for hook in self.on_mitigated:
            hook(self._now())

    def reset(self) -> None:
        """Return to IDLE (used on tREFW counter resets in some designs)."""
        self.state = AboState.IDLE
        self.grace_acts_left = 0
        self.recovery_acts_left = 0
        self.alerting_bank = None
        self.alerting_row = None
        self.alert_pending = False
        self.must_mitigate_now = False
