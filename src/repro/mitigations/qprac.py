"""QPRAC-style underlying PRAC implementation.

The paper's evaluated systems use QPRAC as the base PRAC design: a
per-bank *priority* mitigation queue (deepest counters first) serviced
both reactively (on ABO-triggered RFMs) and opportunistically — QPRAC's
key idea — during idle refresh slack, so queues rarely fill and Alerts
become rare even without TPRAC.  TPRAC then replaces the reactive part
with Timing-Based RFMs; this module exists so the reproduction can run
the base design on its own and as the substrate under TPRAC
(``TpracPolicy(queue_factory=...)``), matching Section 4.1's claim that
TB-RFM is "readily compatible" with QPRAC-style queues.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mitigations.base import MitigationPolicy
from repro.prac.mitigation_queue import PriorityMitigationQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController


class QpracPolicy(MitigationPolicy):
    """Priority-queue PRAC with opportunistic servicing on refresh.

    * Each bank keeps a ``queue_depth``-entry priority queue ordered by
      activation count.
    * ABO-triggered RFMs pop the deepest entry per bank (inherited
      behaviour).
    * Every periodic refresh additionally services one entry per bank
      from refresh slack when ``proactive`` is enabled — the QPRAC
      opportunistic mitigation that keeps Alerts rare.
    """

    name = "qprac"

    def __init__(self, queue_depth: int = 4, proactive: bool = True) -> None:
        super().__init__(
            queue_factory=lambda: PriorityMitigationQueue(capacity=queue_depth)
        )
        self.queue_depth = queue_depth
        self.proactive = proactive
        self.proactive_mitigations = 0

    def on_attached(self, controller: "MemoryController") -> None:
        if self.proactive:
            controller.refresh.on_refresh.append(
                lambda start: self._service_on_refresh(controller)
            )

    def _service_on_refresh(self, controller: "MemoryController") -> None:
        """Mitigate one queued row per bank in the refresh slack."""
        self.proactive_mitigations += len(self._mitigate_queued(controller))
