"""Reference event kernel: the ``Event``-object engine.

This is the kernel ``repro.core.engine`` replaced, kept verbatim (less
``Engine.every``) as the reference for
``tests/core/test_engine_equivalence.py``: each scheduled callback gets
an :class:`Event` object, cancellation goes through ``Event.cancel()``,
and ``events_fired``/``pending`` are batched, so they are exact only
between :meth:`Engine.run` calls.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

_INF = float("inf")


def _noop() -> None:
    """Replaces a cancelled event's callback, releasing its closure."""


class Event:
    """A scheduled callback handle.

    The engine orders events by ``(time, priority, seq)``; ``cancelled``
    events are skipped when popped (lazy deletion keeps cancellation
    O(1)).  Once fired or cancelled an event is inert: ``cancel()`` on a
    fired event is a no-op.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled", "engine")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        label: str,
        engine: Optional["Engine"],
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        engine = self.engine
        if self.cancelled or engine is None:
            return  # already cancelled, already fired, or detached
        self.cancelled = True
        self.callback = _noop  # release the closure immediately
        engine._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.engine is None else "pending")
        return f"<Event t={self.time} prio={self.priority} seq={self.seq} {state} {self.label!r}>"


class Engine:
    """Deterministic discrete-event simulation engine.

    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(10.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [10.0]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq: int = 0
        self._events_fired: int = 0
        self._live: int = 0
        self._stop: bool = False
        self._drained: bool = False  # drain() happened inside run()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run at absolute ``time``.

        ``time`` must not be in the past.  Lower ``priority`` runs first
        among same-time events.  Returns the :class:`Event`, which the
        caller may :meth:`Event.cancel`.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} ns; now is {self.now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        # Inline Event construction (no __init__ call): this runs once
        # per scheduled event and is measurably hot.
        event = Event.__new__(Event)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.label = label
        event.cancelled = False
        event.engine = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback, priority=priority, label=label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when none remain."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            event.engine = None  # mark fired; cancel() becomes a no-op
            self._live -= 1
            self.now = event.time
            event.callback()
            self._events_fired += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached,
        ``max_events`` events have fired, or :meth:`request_stop` is
        called from a callback (whichever comes first).

        When ``until`` is given, the clock is advanced to ``until`` even
        if the queue drains earlier, so wall-clock-based statistics are
        well defined (a :meth:`request_stop` exit skips that advance:
        the stopper wants the clock frozen at the stopping event).
        """
        heap = self._heap
        pop = heapq.heappop
        horizon = _INF if until is None else until
        limit = -1 if max_events is None else max_events
        fired = 0
        now = self.now
        self._stop = False
        self._drained = False  # only a drain *during* this run matters
        if horizon < now:
            return  # horizon already in the past: nothing can fire
        try:
            while heap:
                if fired == limit:
                    return
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    pop(heap)
                    continue
                time = entry[0]
                if time != now:
                    # New timestamp: check the horizon and advance the
                    # clock.  Same-time events (the cascade case) skip both.
                    if time > horizon:
                        break
                    self.now = now = time
                pop(heap)
                event.engine = None  # mark fired; cancel() becomes a no-op
                fired += 1  # counted at pop so the tallies stay exact
                event.callback()    # even if the callback raises
                if self._stop:
                    self._stop = False
                    return
        finally:
            # Batched outside the loop; exact on every exit path.
            self._events_fired += fired
            if self._drained:
                # drain() ran inside a callback and zeroed the counter
                # mid-run: the heap is now the ground truth.
                self._drained = False
                self._live = sum(1 for entry in heap if not entry[3].cancelled)
            else:
                self._live -= fired
        if until is not None and self.now < until:
            self.now = until

    def request_stop(self) -> None:
        """Ask :meth:`run` to return before popping the next event.

        Intended to be called from inside an event callback (e.g. a
        completion hook deciding the simulation's goal is reached); the
        event in flight finishes normally.
        """
        self._stop = True

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1).

        Exact between :meth:`run` calls; while a run is in progress the
        batched bookkeeping settles when the run returns.
        """
        return self._live

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def drain(self) -> None:
        """Discard all pending events (used by tests and teardown)."""
        for entry in self._heap:
            entry[3].engine = None  # detach so late cancel() stays a no-op
        self._heap.clear()
        self._live = 0
        self._drained = True  # tell an in-flight run() the count was reset
