"""Test oracle: a mitigation queue's next victim, read without popping.

The simulator only pops a queue (``pop_victim`` on an RFM), so reading
the head in place is a test need.  Both designs pop the highest count,
the single-entry queue holding only that one entry.
"""

from typing import Optional, Tuple

from repro.prac.mitigation_queue import MitigationQueue, SingleEntryFrequencyQueue


def peek(queue: MitigationQueue) -> Optional[Tuple[int, int]]:
    """(row, count) that ``queue.pop_victim()`` would return next, or None."""
    if isinstance(queue, SingleEntryFrequencyQueue):
        return None if queue._row is None else (queue._row, queue._count)
    entries = queue._entries
    if not entries:
        return None
    victim = max(entries, key=lambda r: (entries[r], -r))
    return (victim, entries[victim])
