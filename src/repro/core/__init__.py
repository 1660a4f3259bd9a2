"""Core infrastructure: the discrete-event simulation kernel.

The whole reproduction is built on a single event-driven engine
(:class:`repro.core.engine.Engine`).  DRAM, memory controller, cores and
attack harnesses all schedule callbacks on it; time is measured in
nanoseconds (floats, since DDR5-8000 has a 0.25 ns clock).
Each scheduled event is a plain list that doubles as its handle
(:data:`repro.core.engine.EventHandle`); pass it to
:meth:`Engine.cancel <repro.core.engine.Engine.cancel>` to cancel it.
"""

from repro.core.engine import Engine, EventHandle

__all__ = ["Engine", "EventHandle"]
