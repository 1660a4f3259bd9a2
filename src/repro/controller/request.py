"""Memory request records exchanged between cores and the controller."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.dram.address import DramAddress


class MemRequest:
    """A single cache-line request to DRAM.

    The controller fills in ``addr`` (the decoded address) and
    ``arrive_time`` (when the request reached it) at enqueue, and
    ``done_time`` when data is returned.  ``on_complete`` lets the
    issuing core (or attack harness) react to completion.

    A plain ``__slots__`` class rather than a dataclass: one of these is
    allocated per DRAM request on the simulator's hot path.
    """

    __slots__ = (
        "phys_addr",
        "is_write",
        "core_id",
        "arrive_time",
        "addr",
        "done_time",
        "on_complete",
        "meta",
    )

    def __init__(
        self,
        phys_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        on_complete: Optional[Callable[["MemRequest"], None]] = None,
        meta: Any = None,
    ) -> None:
        self.phys_addr = phys_addr
        self.is_write = is_write
        self.core_id = core_id
        self.arrive_time = 0.0
        self.addr: Optional[DramAddress] = None
        self.done_time: Optional[float] = None
        self.on_complete = on_complete
        #: optional caller annotation, whatever the issuer needs back
        #: at completion (a dict for the attack probes, the instruction
        #: mark for TraceCore); None by default, so nothing is allocated
        self.meta = meta

    @property
    def latency(self) -> float:
        """End-to-end latency (ns); raises if not yet completed."""
        if self.done_time is None:
            raise RuntimeError(f"{self!r} not completed")
        return self.done_time - self.arrive_time

    def complete(self, time: float) -> None:
        """Mark data returned at ``time`` and fire the completion callback."""
        self.done_time = time
        if self.on_complete is not None:
            self.on_complete(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "WR" if self.is_write else "RD"
        return f"<MemRequest {kind} 0x{self.phys_addr:x} core={self.core_id}>"
