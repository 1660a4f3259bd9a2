"""Timing-Safe PRAC (TPRAC): activity-independent Timing-Based RFMs.

TPRAC issues an RFMab every fixed ``tb_window`` nanoseconds, regardless
of memory activity, and mitigates the most-activated row per bank from
a single-entry frequency queue.  Because the TB-Window is configured
(via the Feinting worst-case analysis, :mod:`repro.analysis.tb_window`)
so that no row can ever reach N_BO between mitigations, ABO never
fires; and because the RFM schedule is a pure function of time, its
latency spikes carry no information.

Co-design with Targeted Refresh (Section 4.3): when a TREF slot lands
inside the current TB-Window, the DRAM performs the mitigation in
refresh slack, and the scheduled TB-RFM is skipped — same security,
fewer channel-blocking RFMs.

The controller-side cost is a single 24-bit RFM Interval Register
(Section 6.8); see :mod:`repro.analysis.storage`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.dram.commands import RfmProvenance
from repro.mitigations.base import MitigationPolicy, QueueFactory
from repro.prac.mitigation_queue import SingleEntryFrequencyQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController
    from repro.core.engine import EventHandle


class TpracPolicy(MitigationPolicy):
    """TPRAC: periodic TB-RFMs + single-entry frequency queue."""

    name = "tprac"

    def __init__(
        self,
        tb_window: float,
        queue_factory: QueueFactory = SingleEntryFrequencyQueue,
    ) -> None:
        """``tb_window`` is the TB-RFM period in ns (see
        :func:`repro.mitigations.policy_factory` for the solved one)."""
        super().__init__(queue_factory=queue_factory)
        if tb_window <= 0:
            raise ValueError("TB-Window must be positive")
        self.tb_window = float(tb_window)
        self.tb_rfms_issued = 0
        self.tb_rfms_skipped = 0   # skipped thanks to a TREF in-window
        self._tref_in_window = False
        self._timer_event: Optional["EventHandle"] = None

    # ------------------------------------------------------------------
    def on_attached(self, controller: "MemoryController") -> None:
        self._arm_timer(controller)

    def _arm_timer(self, controller: "MemoryController") -> None:
        engine = controller.engine
        self._timer_event = engine.schedule(
            engine.now + self.tb_window, lambda: self._tb_fire(controller), -1,
            "tb-rfm",
        )

    def _tb_fire(self, controller: "MemoryController") -> None:
        if self._tref_in_window:
            # A Targeted Refresh already mitigated this window's victim.
            self.tb_rfms_skipped += 1
            self._tref_in_window = False
        else:
            self.tb_rfms_issued += 1
            controller.request_rfm(RfmProvenance.TB)
        self._arm_timer(controller)

    # ------------------------------------------------------------------
    def on_tref(self, controller: "MemoryController", time: float) -> None:
        """Mitigate from refresh slack; mark the window as covered."""
        self._mitigate_queued(controller)
        self._tref_in_window = True
