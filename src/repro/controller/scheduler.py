"""Pluggable per-bank request schedulers.

The controller picks the next request per bank through one of the
registered scheduling policies (:data:`SCHEDULERS`, addressed by the
``scheduler`` field of :class:`repro.config.SystemConfig`):

* ``fr_fcfs`` — First-Ready, First-Come-First-Served with a row-hit
  cap (the paper's controller, Table 3, following Mutlu & Moscibroda):
  among queued requests, row-buffer hits are preferred (they are
  "ready" without an ACT); ties break by age.  An unbounded hit-first
  policy can starve conflicting requests, so consecutive row hits are
  capped at 4; after the cap the oldest request wins regardless.
* ``fcfs`` — strict arrival order, no row-hit preference.  The
  locality-blind baseline: maximum fairness, minimum row-buffer reuse.
* ``fr_fcfs_cap`` — batch/starvation-capped FR-FCFS (PAR-BS-style):
  the oldest ``batch`` requests of a bank form the current batch; row
  hits win *within* the batch only, so no request waits more than one
  batch once it reaches the front — a hard starvation bound instead of
  ``fr_fcfs``'s consecutive-hit heuristic.

All policies share the per-bank queue machinery
(:class:`BankQueueScheduler`): O(1) enqueue, a maintained sorted
busy-bank list the controller rebuilds its ready-time agenda from, and
a total-pending counter — the hot-path contract the controller relies
on.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.controller.request import MemRequest
from repro.dram.bank import Bank
from repro.registry import Registry

#: Request-scheduler registry: ``SystemConfig.scheduler`` names resolve
#: here.  Factories are called as ``factory(num_banks=..., **params)``.
SCHEDULERS = Registry("scheduler", "scheduler")


class BankQueueScheduler:
    """Shared per-bank queue machinery behind every scheduling policy.

    Subclasses implement :meth:`pick` (choose and remove the next
    request for a bank; it is only called for a bank with work) and
    inherit the bookkeeping: busy-bank tracking via a sorted list
    maintained at the (rare) empty<->busy transitions, so reading the
    busy banks needs no per-call sort or set copy, and
    ``_total_pending`` avoids re-summing queue lengths.
    """

    def __init__(self, num_banks: int) -> None:
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.queues: List[Deque[MemRequest]] = [deque() for _ in range(num_banks)]
        self._busy: List[int] = []
        self._total_pending = 0

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

    def pending(self, bank_id: Optional[int] = None) -> int:
        """Queued request count, per bank or total."""
        if bank_id is not None:
            return len(self.queues[bank_id])
        return self._total_pending

    def banks_with_work(self) -> Sequence[int]:
        """Bank ids with at least one queued request, ascending.

        Returns the live internal list (no copy): callers that serve
        requests while iterating must snapshot it first.
        """
        return self._busy

    # ------------------------------------------------------------------
    def _remove(self, bank_id: int, index: int) -> MemRequest:
        """Remove and return the request at ``index`` of a bank queue,
        maintaining the busy list and pending counter."""
        queue = self.queues[bank_id]
        if index == 0:
            chosen = queue.popleft()
        else:
            chosen = queue[index]
            del queue[index]
        self._total_pending -= 1
        if not queue:
            self._busy.remove(bank_id)
        return chosen

    def pick(self, bank_id: int, bank: Bank) -> Optional[MemRequest]:
        """Choose and remove the next request for ``bank_id``."""
        raise NotImplementedError


@SCHEDULERS.register("fr_fcfs")
class FrFcfsScheduler(BankQueueScheduler):
    """Per-bank FR-FCFS queues with a configurable row-hit cap."""

    def __init__(self, num_banks: int, cap: int = 4) -> None:
        if cap <= 0:
            raise ValueError("cap must be positive")
        super().__init__(num_banks)
        self.cap = cap
        self._consecutive_hits: List[int] = [0] * num_banks

    # ------------------------------------------------------------------
    def pick(self, bank_id: int, bank: Bank) -> Optional[MemRequest]:
        """Choose and remove the next request for ``bank_id``.

        Row hits win until ``cap`` consecutive hits have been served
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
                    if index == 0 or hits[bank_id] < self.cap:
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
        # Removal bookkeeping deliberately inlined (not via _remove):
        # this is the default policy on the simulator's hottest path and
        # the hit scan above already did the del/popleft.  Keep in sync
        # with BankQueueScheduler._remove.
        self._total_pending -= 1
        if not queue:
            self._busy.remove(bank_id)
        return chosen


@SCHEDULERS.register("fcfs")
class FcfsScheduler(BankQueueScheduler):
    """Strict first-come-first-served: oldest request wins, always.

    No row-buffer-hit preference: the locality-blind baseline against
    which FR-FCFS's reordering benefit (and its leakage surface) is
    measured.
    """

    def pick(self, bank_id: int, bank: Bank) -> Optional[MemRequest]:
        queue = self.queues[bank_id]
        if not queue:
            return None
        return self._remove(bank_id, 0)


@SCHEDULERS.register("fr_fcfs_cap")
class FrFcfsCapScheduler(BankQueueScheduler):
    """Batch/starvation-capped FR-FCFS (PAR-BS-style batching).

    The oldest ``batch`` queued requests of a bank form the current
    batch; :meth:`pick` serves row hits first *within the batch* (ties
    by age) and refuses to look past it, so every batched request is
    served within ``batch`` picks of entering the front — a hard
    per-request starvation bound, where ``fr_fcfs``'s consecutive-hit
    cap only bounds the streak length.  A new batch forms when the
    current one drains.
    """

    def __init__(self, num_banks: int, batch: int = 8) -> None:
        if batch <= 0:
            raise ValueError("batch must be positive")
        super().__init__(num_banks)
        self.batch = batch
        self._batch_left: List[int] = [0] * num_banks

    def pick(self, bank_id: int, bank: Bank) -> Optional[MemRequest]:
        queue = self.queues[bank_id]
        if not queue:
            return None
        left = self._batch_left[bank_id]
        if left == 0:
            left = self.batch
        # The batch never outgrows the queue (requests that arrived
        # after the batch formed are not admitted early, but a drained
        # queue resets it).
        size = left if left < len(queue) else len(queue)
        index = 0
        open_row = bank.open_row
        if open_row is not None:
            for i in range(size):
                if queue[i].addr.row == open_row:
                    index = i
                    break
        self._batch_left[bank_id] = size - 1
        return self._remove(bank_id, index)
