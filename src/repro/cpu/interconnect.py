"""Contended interconnect models between the cache hierarchy and DRAM.

Two registered models sit between the last cache level (or, with
``cache="none"``, the cores) and the
:class:`~repro.controller.memory_system.MemorySystem` facade:

* ``fixed`` — :class:`FixedLatencyInterconnect`: every transfer is
  delayed by a constant ``latency_ns`` with unlimited bandwidth.  The
  cheapest way to model an on-chip network's pipeline depth without
  contention.
* ``crossbar`` — :class:`CrossbarInterconnect`: a banked crossbar with
  one FIFO queue per port.  Transfers hash to a port by line address,
  each occupies its port for ``occupancy_ns``, and a busy port delays
  later arrivals — so bursty eviction/writeback traffic contends
  exactly where a real memory-side NoC would serialize it.

Both are plain bookkeeping objects: they never schedule engine events
themselves.  :meth:`Interconnect.grant` maps an (address, time) pair to
the departure time, and the caller (the hierarchy or the
:class:`InterconnectFront` shim) schedules delivery.  Selection goes
through :data:`INTERCONNECTS` exactly like schedulers and mappings:
``SystemConfig(interconnect="crossbar", interconnect_params={...})``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.request import MemRequest
    from repro.core.engine import Engine

#: Registry of interconnect models addressed by
#: ``SystemConfig.interconnect`` / the campaign ``interconnect`` axis.
INTERCONNECTS = Registry("interconnect", "interconnect")

#: ``interconnect="none"`` — the historical direct wiring.  Registered
#: as a factory returning ``None`` so validation and construction are
#: uniform across every spelling of the axis.
INTERCONNECTS.register("none", lambda **kwargs: None)


class Interconnect:
    """Base interconnect: transfer accounting plus the grant contract.

    ``grant(phys_addr, time)`` reserves the resources a transfer needs
    and returns its departure (delivery) time; it must be monotone in
    ``time`` per port so per-port ordering is FIFO.
    """

    kind = "interconnect"

    def __init__(self, ports: int, latency_ns: float) -> None:
        if ports < 1:
            raise ValueError("interconnect needs at least one port")
        if latency_ns < 0:
            raise ValueError("latency_ns must be non-negative")
        self.ports = ports
        self.latency_ns = latency_ns
        self.transfers = 0
        self.queued = 0
        self.total_wait_ns = 0.0
        self.busy_ns = 0.0

    # ------------------------------------------------------------------
    def grant(self, phys_addr: int, time: float) -> float:
        """Reserve a slot for one transfer; returns the delivery time."""
        raise NotImplementedError

    def occupancy(self, elapsed_ns: float) -> float:
        """Mean fraction of aggregate port-time spent transferring."""
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_ns / (elapsed_ns * self.ports)

    def stats(self, elapsed_ns: float = 0.0) -> Dict[str, Any]:
        """Counter snapshot (JSON-able) for results and reports."""
        return {
            "kind": self.kind,
            "ports": self.ports,
            "transfers": self.transfers,
            "queued": self.queued,
            "total_wait_ns": self.total_wait_ns,
            "mean_wait_ns": (
                self.total_wait_ns / self.transfers if self.transfers else 0.0
            ),
            "busy_ns": self.busy_ns,
            "occupancy": self.occupancy(elapsed_ns),
        }


@INTERCONNECTS.register("fixed")
class FixedLatencyInterconnect(Interconnect):
    """Uncontended link: every transfer arrives ``latency_ns`` later."""

    kind = "fixed"

    def __init__(self, latency_ns: float = 2.0) -> None:
        super().__init__(ports=1, latency_ns=latency_ns)

    def grant(self, phys_addr: int, time: float) -> float:
        self.transfers += 1
        return time + self.latency_ns


@INTERCONNECTS.register("crossbar")
class CrossbarInterconnect(Interconnect):
    """Banked crossbar with per-port FIFO queuing.

    A transfer hashes to ``(phys_addr // line_bytes) % ports``, waits
    for its port to free, holds it for ``occupancy_ns``, and arrives
    ``latency_ns`` after it starts.  ``queued`` / ``total_wait_ns``
    count the transfers that found their port busy and the time they
    spent waiting.
    """

    kind = "crossbar"

    def __init__(
        self,
        ports: int = 4,
        latency_ns: float = 4.0,
        occupancy_ns: float = 1.0,
        line_bytes: int = 64,
    ) -> None:
        super().__init__(ports=ports, latency_ns=latency_ns)
        if occupancy_ns <= 0:
            raise ValueError("occupancy_ns must be positive")
        if line_bytes < 1:
            raise ValueError("line_bytes must be positive")
        self.occupancy_ns = occupancy_ns
        self.line_bytes = line_bytes
        self._port_free: List[float] = [0.0] * ports

    def port_of(self, phys_addr: int) -> int:
        """The port a line-sized transfer of ``phys_addr`` serializes on."""
        return (phys_addr // self.line_bytes) % self.ports

    def grant(self, phys_addr: int, time: float) -> float:
        port = self.port_of(phys_addr)
        start = self._port_free[port]
        if start > time:
            self.queued += 1
            self.total_wait_ns += start - time
        else:
            start = time
        self._port_free[port] = start + self.occupancy_ns
        self.busy_ns += self.occupancy_ns
        self.transfers += 1
        return start + self.latency_ns


class InterconnectFront:
    """Memory front that routes raw core requests over an interconnect.

    Used when ``interconnect`` is set without a cache hierarchy: cores
    still see the one-method ``enqueue`` target, but each request is
    delivered to the memory system at the interconnect's grant time
    instead of immediately.
    """

    def __init__(
        self,
        engine: "Engine",
        memory: Any,
        interconnect: Interconnect,
    ) -> None:
        self.engine = engine
        self.memory = memory
        self.interconnect = interconnect

    def enqueue(self, request: "MemRequest") -> None:
        """Forward one request to memory at the interconnect grant time."""
        engine = self.engine
        departure = self.interconnect.grant(request.phys_addr, engine.now)
        engine.schedule(
            departure, partial(self.memory.enqueue, request), 0, "interconnect"
        )
