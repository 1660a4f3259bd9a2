"""In-DRAM mitigation queue designs.

The PRAC specification leaves the mitigation queue implementation to
vendors; the paper (Section 2.3, 4.1) notes that this choice decides
both security and performance.  Three designs are provided:

* :class:`SingleEntryFrequencyQueue` — TPRAC's proposal: one entry per
  bank tracking the most-activated row (address + count), replaced
  whenever a newly activated row exceeds the stored count.  Section
  4.2.3 argues this matches the security of idealized PRAC.
* :class:`PriorityMitigationQueue` — a QPRAC-style multi-entry priority
  queue ordered by activation count.
* :class:`FifoMitigationQueue` — a FIFO of rows that crossed a
  threshold; prior work showed plain FIFOs are attackable, included
  here as a baseline for the ablation benches.

All queues share one interface: ``observe(row, count)`` on each
activation, ``pop_victim()`` when an RFM arrives, ``reset(row)`` after
mitigation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple


class MitigationQueue:
    """Interface for per-bank mitigation queues."""

    def observe(self, row: int, count: int) -> None:
        """Notify the queue that ``row`` was activated (new ``count``)."""
        raise NotImplementedError

    def pop_victim(self) -> Optional[int]:
        """Return the row to mitigate at this RFM, removing it."""
        raise NotImplementedError

    def peek(self) -> Optional[Tuple[int, int]]:
        """Return (row, count) of the next victim without removing it."""
        raise NotImplementedError

    def drop(self, row: int) -> None:
        """Forget ``row`` (its counter was reset by another mechanism)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Forget everything (tREFW-aligned counter reset)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class SingleEntryFrequencyQueue(MitigationQueue):
    """TPRAC's single-entry frequency-based queue (Section 4.1).

    Stores only the (row, count) of the most heavily activated row seen
    since the last mitigation; a newly activated row replaces the entry
    when its count exceeds the stored one.  Ties keep the incumbent,
    matching the paper's Figure 8 example where Row C (in the queue
    first) is mitigated while Row T at an equal count is not.
    """

    def __init__(self) -> None:
        self._row: Optional[int] = None
        self._count: int = 0

    def observe(self, row: int, count: int) -> None:
        if self._row == row:
            self._count = count
        elif count > self._count:
            self._row, self._count = row, count

    def pop_victim(self) -> Optional[int]:
        row = self._row
        self._row, self._count = None, 0
        return row

    def peek(self) -> Optional[Tuple[int, int]]:
        if self._row is None:
            return None
        return (self._row, self._count)

    def drop(self, row: int) -> None:
        if self._row == row:
            self._row, self._count = None, 0

    def clear(self) -> None:
        self._row, self._count = None, 0

    def __len__(self) -> int:
        return 0 if self._row is None else 1


class PriorityMitigationQueue(MitigationQueue):
    """QPRAC-style multi-entry queue ordered by activation count.

    Keeps up to ``capacity`` distinct rows; on overflow the
    lowest-count entry is evicted (so the heaviest hitters survive).
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, int] = {}

    def observe(self, row: int, count: int) -> None:
        if row in self._entries:
            self._entries[row] = count
            return
        if len(self._entries) < self.capacity:
            self._entries[row] = count
            return
        weakest = min(self._entries, key=lambda r: (self._entries[r], r))
        if count > self._entries[weakest]:
            del self._entries[weakest]
            self._entries[row] = count

    def pop_victim(self) -> Optional[int]:
        if not self._entries:
            return None
        victim = max(self._entries, key=lambda r: (self._entries[r], -r))
        del self._entries[victim]
        return victim

    def peek(self) -> Optional[Tuple[int, int]]:
        if not self._entries:
            return None
        victim = max(self._entries, key=lambda r: (self._entries[r], -r))
        return (victim, self._entries[victim])

    def drop(self, row: int) -> None:
        self._entries.pop(row, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class FifoMitigationQueue(MitigationQueue):
    """Insertion-ordered queue of rows that crossed ``threshold``.

    Included as the insecure baseline: targeted attacks can flush the
    FIFO with decoys so the true aggressor is never at the head.
    """

    def __init__(self, capacity: int = 4, threshold: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.threshold = threshold
        self._fifo: "OrderedDict[int, int]" = OrderedDict()

    def observe(self, row: int, count: int) -> None:
        if count < self.threshold:
            return
        if row in self._fifo:
            self._fifo[row] = count
            return
        if len(self._fifo) >= self.capacity:
            return  # full FIFO drops new entries — the exploitable flaw
        self._fifo[row] = count

    def pop_victim(self) -> Optional[int]:
        if not self._fifo:
            return None
        row, _ = self._fifo.popitem(last=False)
        return row

    def peek(self) -> Optional[Tuple[int, int]]:
        if not self._fifo:
            return None
        row = next(iter(self._fifo))
        return (row, self._fifo[row])

    def drop(self, row: int) -> None:
        self._fifo.pop(row, None)

    def clear(self) -> None:
        self._fifo.clear()

    def __len__(self) -> int:
        return len(self._fifo)
