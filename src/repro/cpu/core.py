"""Trace-driven core with a ROB-window memory-level-parallelism model.

The core replays a trace of (compute gap, memory access) records.
Non-memory instructions retire at the pipeline's peak width; every
memory access becomes a request to the memory target, the memory
system (the traces are DRAM-level miss streams).  The core may run
ahead of its *oldest* outstanding request by at most ``rob_size``
instructions — the same constraint a 352-entry reorder buffer
imposes — so memory-intensive traces naturally exhibit limited MLP
and are slowed by RFM-induced channel blocking exactly as in the
paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, TYPE_CHECKING

from repro.controller.request import MemRequest
from repro.cpu.trace import TraceCursor, TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from typing import Protocol

    from repro.core.engine import Engine

    class MemoryTarget(Protocol):
        """Anything that accepts memory requests (controller or facade)."""

        def enqueue(self, request: MemRequest) -> None: ...


@dataclass(frozen=True)
class CoreParams:
    """Pipeline parameters (paper Table 3: 4 GHz, 6-issue, 352 ROB)."""

    freq_ghz: float = 4.0
    width: int = 4           # sustained retire width for the gap insts
    rob_size: int = 352
    max_outstanding: int = 64  # MSHRs toward DRAM

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


class TraceCore:
    """One core replaying a trace into its memory target."""

    def __init__(
        self,
        engine: "Engine",
        memory: "MemoryTarget",
        cursor: TraceCursor,
        core_id: int,
        params: Optional[CoreParams] = None,
        max_requests: Optional[int] = None,
    ) -> None:
        self.engine = engine
        #: request sink: a bare :class:`MemoryController` or the
        #: multi-channel :class:`~repro.controller.memory_system.MemorySystem`
        #: facade — the core only calls ``enqueue`` and lets the memory
        #: side route by physical address.
        self.memory = memory
        self.cursor = cursor
        self.core_id = core_id
        self.params = params or CoreParams()
        self.max_requests = max_requests

        self.insts_retired = 0
        self.dram_requests = 0
        self.finished = False
        self.finish_time: Optional[float] = None
        #: optional hook fired once when the core finishes its trace
        self.on_finish: Optional[Callable[["TraceCore"], None]] = None
        #: inst numbers of outstanding DRAM requests, oldest first
        self._outstanding: Deque[int] = deque()
        #: the record _advance consumed for the pending _issue_dram; one
        #: slot suffices: each of the two schedules the other, and
        #: _dram_done reschedules _advance only after an _advance that
        #: scheduled nothing
        self._next: Optional[TraceRecord] = None
        self._stalled = False
        self._started = False
        # Hot-path caches: plain attribute loads instead of dataclass
        # attribute chains / properties inside _advance (identical values,
        # so timing results are bit-for-bit unchanged).
        params = self.params
        self._cycle_ns = params.cycle_ns
        self._width = params.width
        self._rob_size = params.rob_size
        self._max_outstanding = params.max_outstanding
        self._mem_label = f"core{core_id}-mem"
        self._budget = float("inf") if max_requests is None else max_requests

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin issuing; idempotent."""
        if self._started:
            return
        self._started = True
        self.engine.schedule(self.engine.now, self._advance, label=f"core{self.core_id}")

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the core's active lifetime."""
        end = self.finish_time if self.finish_time is not None else self.engine.now
        if end <= 0:
            return 0.0
        cycles = end / self.params.cycle_ns
        return self.insts_retired / cycles if cycles > 0 else 0.0

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Consume trace records until blocked or done."""
        if self.finished:
            return
        if self.dram_requests >= self._budget:
            record = None
        else:
            # Inline TraceCursor.next's common case (in-range, no loop).
            cursor = self.cursor
            records = cursor.records
            position = cursor.position
            if position < len(records):
                record = records[position]
                cursor.position = position + 1
            else:
                record = cursor.next()  # exhausted or looping trace
        if record is None:
            if not self._outstanding:
                self._finish()
            else:
                self._stalled = True  # drain remaining misses, then finish
            return

        # ROB window check: cannot run past the oldest miss + rob_size.
        outstanding = self._outstanding
        if outstanding:
            oldest = outstanding[0]
            if (
                self.insts_retired + record.gap_insts + 1 - oldest
                > self._rob_size
                or len(outstanding) >= self._max_outstanding
            ):
                self._stalled = True
                self.cursor.position = max(0, self.cursor.position - 1)
                return

        compute_ns = (record.gap_insts / self._width) * self._cycle_ns
        self.insts_retired += record.gap_insts + 1
        self._next = record
        engine = self.engine
        engine.schedule(
            engine.now + compute_ns, self._issue_dram, 0, self._mem_label
        )

    def _issue_dram(self) -> None:
        record = self._next
        assert record is not None  # set by the _advance that scheduled us
        self.dram_requests += 1
        inst_mark = self.insts_retired
        self._outstanding.append(inst_mark)
        # Built positionally (keywords cost more on this per-request
        # path), carrying the instruction mark in meta so that the
        # completion callback needs no per-request closure.
        self.memory.enqueue(
            MemRequest(
                record.phys_addr, record.is_write, self.core_id, 0.0, None,
                None, None, self._dram_done, inst_mark,
            )
        )
        # Keep fetching ahead of the miss (the ROB check gates this).
        self.engine.schedule(self.engine.now, self._advance)

    def _dram_done(self, request: MemRequest) -> None:
        inst_mark: int = request.meta
        outstanding = self._outstanding
        try:
            if outstanding and outstanding[0] == inst_mark:
                outstanding.popleft()  # completions are mostly in order
            else:
                outstanding.remove(inst_mark)
        except ValueError:  # pragma: no cover - defensive
            pass
        if self._stalled:
            self._stalled = False
            self.engine.schedule(self.engine.now, self._advance)

    def _finish(self) -> None:
        if not self.finished:
            self.finished = True
            self.finish_time = self.engine.now
            if self.on_finish is not None:
                self.on_finish(self)
