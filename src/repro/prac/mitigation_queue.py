"""In-DRAM mitigation queue designs.

The PRAC specification leaves the mitigation queue implementation to
vendors; the paper (Section 2.3, 4.1) notes that this choice decides
both security and performance.  Two designs are provided:

* :class:`SingleEntryFrequencyQueue` — TPRAC's proposal: one entry per
  bank tracking the most-activated row (address + count), replaced
  whenever a newly activated row exceeds the stored count.  Section
  4.2.3 argues this matches the security of idealized PRAC.
* :class:`PriorityMitigationQueue` — a QPRAC-style multi-entry priority
  queue ordered by activation count.

Both share one interface: ``observe(row, count)`` on each activation,
``pop_victim()`` when an RFM arrives, ``clear()`` at a tREFW counter
reset and ``len()`` to tell an empty queue.
"""

from __future__ import annotations

from typing import Optional

#: Rows a :class:`PriorityMitigationQueue` holds (QPRAC's depth).
PRIORITY_QUEUE_DEPTH = 4


class MitigationQueue:
    """Interface for per-bank mitigation queues."""

    def observe(self, row: int, count: int) -> None:
        """Notify the queue that ``row`` was activated (new ``count``)."""
        raise NotImplementedError

    def pop_victim(self) -> Optional[int]:
        """Return the row to mitigate at this RFM, removing it."""
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

    def clear(self) -> None:
        self._row, self._count = None, 0

    def __len__(self) -> int:
        return 0 if self._row is None else 1


class PriorityMitigationQueue(MitigationQueue):
    """QPRAC-style multi-entry queue ordered by activation count.

    Keeps up to :data:`PRIORITY_QUEUE_DEPTH` distinct rows; on overflow
    the lowest-count entry is evicted (so the heaviest hitters survive).
    """

    def __init__(self) -> None:
        self._entries: dict[int, int] = {}

    def observe(self, row: int, count: int) -> None:
        if row in self._entries:
            self._entries[row] = count
            return
        if len(self._entries) < PRIORITY_QUEUE_DEPTH:
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

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
