"""The per-bank FR-FCFS request scheduler.

The controller picks the next request per bank First-Ready,
First-Come-First-Served with a row-hit cap (the paper's controller,
Table 3, following Mutlu & Moscibroda): among queued requests,
row-buffer hits are preferred (they are "ready" without an ACT); ties
break by age.  An unbounded hit-first policy can starve conflicting
requests, so consecutive row hits are capped at 4; after the cap the
oldest request wins regardless.

The queues keep the hot-path contract the controller relies on: O(1)
enqueue, a maintained sorted busy-bank list the controller rebuilds
its ready-time agenda from, and a total-pending counter.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.controller.request import MemRequest
from repro.dram.bank import Bank

#: Consecutive row hits served past an older waiting request before the
#: oldest request wins.
HIT_CAP = 4


class BankQueueScheduler:
    """Per-bank FR-FCFS queues with a row-hit cap of :data:`HIT_CAP`.

    Busy banks are tracked in a sorted list maintained at the (rare)
    empty<->busy transitions, so reading the busy banks needs no
    per-call sort or set copy, and ``_total_pending`` avoids re-summing
    queue lengths.
    """

    def __init__(self, num_banks: int) -> None:
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.queues: List[Deque[MemRequest]] = [deque() for _ in range(num_banks)]
        self._busy: List[int] = []
        self._total_pending = 0
        self._consecutive_hits: List[int] = [0] * num_banks

    # ------------------------------------------------------------------
    def enqueue(self, request: MemRequest, bank_id: int) -> None:
        """Append a decoded request to its bank queue."""
        if request.addr is None:
            raise ValueError("request must be decoded before enqueueing")
        queue = self.queues[bank_id]
        if not queue:
            insort(self._busy, bank_id)
        queue.append(request)
        self._total_pending += 1

    def pending(self) -> int:
        """Queued request count over every bank."""
        return self._total_pending

    def banks_with_work(self) -> Sequence[int]:
        """Bank ids with at least one queued request, ascending.

        Returns the live internal list (no copy): callers that serve
        requests while iterating must snapshot it first.
        """
        return self._busy

    # ------------------------------------------------------------------
    def pick(self, bank_id: int, bank: Bank) -> Optional[MemRequest]:
        """Choose and remove the next request for ``bank_id``.

        Row hits win until :data:`HIT_CAP` consecutive hits have been served
        while an older non-hit waits; then the oldest request is served
        to guarantee forward progress.  Requests are decoded at enqueue
        time, so the scan compares rows directly — no per-request
        revalidation, no temporary allocations.
        """
        queue = self.queues[bank_id]
        if not queue:
            return None
        chosen = None
        open_row = bank.open_row
        if open_row is not None:
            hits = self._consecutive_hits
            index = 0
            for req in queue:
                if req.addr.row == open_row:
                    if index == 0 or hits[bank_id] < HIT_CAP:
                        chosen = req
                        del queue[index]
                        if index > 0:
                            hits[bank_id] += 1
                    break
                index += 1
        if chosen is None:
            # No row hit queued, or the hit cap is exhausted: serve the
            # oldest request and reset the consecutive-hit streak.
            self._consecutive_hits[bank_id] = 0
            chosen = queue.popleft()
        self._total_pending -= 1
        if not queue:
            self._busy.remove(bank_id)
        return chosen
