"""Mitigation policy interface shared by all designs.

A policy plugs into the :class:`~repro.controller.controller.MemoryController`
via :meth:`attach` and receives these callbacks:

* bank activations, via the per-bank mitigation queues it installs;
* ``mitigate_on_rfm`` whenever an RFM (of any provenance) is issued —
  the policy decides which row each bank mitigates;
* ``on_tref`` when a Targeted-Refresh slot fires;
* ``on_counter_reset`` at tREFW boundaries when the reset policy is on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.dram.commands import RfmProvenance
from repro.prac.mitigation_queue import MitigationQueue, SingleEntryFrequencyQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController
    from repro.dram.bank import Bank

#: Builds one per-bank mitigation queue; policies take it so tests can
#: substitute deeper/fifo queues without subclassing.
QueueFactory = Callable[[], MitigationQueue]


class MitigationPolicy:
    """Base class: installs one mitigation queue per bank."""

    name = "base"

    def __init__(self, queue_factory: QueueFactory = SingleEntryFrequencyQueue) -> None:
        self._queue_factory = queue_factory
        self.queues: List[MitigationQueue] = []
        #: flat ids of banks whose queue may hold a victim: an ACT arms
        #: its bank, a pop that empties the queue disarms it
        self.armed: Set[int] = set()
        self.controller: Optional["MemoryController"] = None
        self.mitigations_performed = 0

    # ------------------------------------------------------------------
    def attach(self, controller: "MemoryController") -> None:
        """Wire queues to every bank's activation stream."""
        self.controller = controller
        self.queues = []
        self.armed.clear()
        for bank in controller.channel:
            self.queues.append(self._queue_factory())
            bank.on_activate(self._observe)
        self.on_attached(controller)

    def _observe(self, bank: "Bank", row: int, count: int) -> None:
        """Per-ACT hook: feed the bank's queue and arm the bank."""
        bank_id = bank.bank_id
        self.queues[bank_id].observe(row, count)
        self.armed.add(bank_id)

    def on_attached(self, controller: "MemoryController") -> None:
        """Subclass hook, called once wiring is complete."""

    # ------------------------------------------------------------------
    def mitigate_on_rfm(
        self, controller: "MemoryController", time: float, provenance: RfmProvenance
    ) -> Dict[int, int]:
        """Mitigate the queued victim in every bank; returns bank->row."""
        return self._mitigate_queued(controller)

    def _mitigate_queued(self, controller: "MemoryController") -> Dict[int, int]:
        """Pop and mitigate one queued victim per bank; returns bank->row.

        Only :attr:`armed` banks are visited, in ascending bank id, so
        the result matches a pop over every queue: the others are
        empty, and popping an empty queue changes nothing.
        """
        armed = self.armed
        if not armed:
            return {}
        mitigated: Dict[int, int] = {}
        queues = self.queues
        banks = controller.channel.banks
        for bank_id in sorted(armed):
            queue = queues[bank_id]
            victim = queue.pop_victim()
            if not queue:
                armed.discard(bank_id)
            if victim is None:
                continue
            banks[bank_id].mitigate(victim)
            mitigated[bank_id] = victim
            self.mitigations_performed += 1
        return mitigated

    def on_tref(self, controller: "MemoryController", time: float) -> None:
        """Targeted-Refresh slot: default policies ignore it."""

    def on_counter_reset(self, controller: "MemoryController", time: float) -> None:
        """tREFW counter reset: queues must forget stale counts."""
        for queue in self.queues:
            queue.clear()
        self.armed.clear()


class NoMitigationPolicy(MitigationPolicy):
    """PRAC timings but zero mitigation traffic.

    Combined with ``enable_abo=False`` this is the paper's
    normalization baseline ("PRAC-enabled DDR5 without ABO").
    """

    name = "none"

    def mitigate_on_rfm(
        self, controller: "MemoryController", time: float, provenance: RfmProvenance
    ) -> Dict[int, int]:  # noqa: D102
        return {}
