"""QPRAC-style underlying PRAC implementation.

The paper's evaluated systems use QPRAC as the base PRAC design: a
per-bank *priority* mitigation queue (deepest counters first) serviced
both reactively (on ABO-triggered RFMs) and opportunistically — QPRAC's
key idea — during idle refresh slack, so queues rarely fill and Alerts
become rare even without TPRAC.  TPRAC then replaces the reactive part
with Timing-Based RFMs; this module exists so the reproduction can run
the base design on its own.  Its queue is a class-level choice
(:attr:`~repro.mitigations.base.MitigationPolicy.queue_class`), so a
TPRAC subclass with the priority queue is one line; the tests run one
to check Section 4.1's claim that TB-RFM is "readily compatible" with
QPRAC-style queues.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mitigations.base import MitigationPolicy
from repro.prac.mitigation_queue import PriorityMitigationQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController


class QpracPolicy(MitigationPolicy):
    """Priority-queue PRAC with opportunistic servicing on refresh.

    * Each bank keeps a priority queue of
      :data:`~repro.prac.mitigation_queue.PRIORITY_QUEUE_DEPTH` entries
      ordered by activation count.
    * ABO-triggered RFMs pop the deepest entry per bank (inherited
      behaviour).
    * Every periodic refresh additionally services one entry per bank
      from refresh slack — the QPRAC opportunistic mitigation that
      keeps Alerts rare.
    """

    name = "qprac"
    queue_class = PriorityMitigationQueue

    def __init__(self) -> None:
        super().__init__()
        self.proactive_mitigations = 0

    def on_attached(self, controller: "MemoryController") -> None:
        controller.refresh.on_refresh.append(
            lambda start: self._service_on_refresh(controller)
        )

    def _service_on_refresh(self, controller: "MemoryController") -> None:
        """Mitigate one queued row per bank in the refresh slack."""
        self.proactive_mitigations += len(self._mitigate_queued(controller))
