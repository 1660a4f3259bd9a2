"""A minimal, deterministic discrete-event simulation kernel.

Every component of the reproduction (DRAM banks, the memory controller,
trace-driven cores, attack processes) interacts through this engine.  The
engine keeps a priority queue of scheduled callbacks ordered by
``(time, priority, sequence)``; the sequence number makes scheduling
deterministic when two events share a timestamp.

Hot-path design (this is the innermost loop of every experiment):

* Each scheduled event is one list, ``[time, priority, seq, callback,
  label]`` (an :data:`EventHandle`).  That list is both the heap entry
  and the handle :meth:`Engine.schedule` returns, so scheduling
  allocates nothing else.  ``heapq`` compares entries in C and stops at
  ``seq`` (unique), so the callback is never compared.
* The callback slot is the event's state: it holds the callback while
  the event is pending and is cleared to ``None`` once the event fires
  or is cancelled.  :meth:`Engine.cancel` clears it in O(1);
  the entry stays in the heap and is skipped when popped.  Clearing the
  slot also releases the closure, and makes a late cancel a no-op.
* :attr:`Engine.pending` and :attr:`Engine.events_fired` are derived
  from the heap length, the sequence counter and two tallies (cancelled
  entries still queued, entries removed without firing), so both are
  O(1) and exact at any moment, mid-run included.
* :meth:`Engine.run` is a single inlined loop with a same-time fast
  path: consecutive events at the current timestamp skip the horizon
  comparison and the clock write.
* Every event enters through :meth:`Engine.schedule`
  (:meth:`Engine.schedule_after` and :meth:`Engine.every` call it), so
  wrapping that one method sees every event; perfbench's traced run
  does exactly that to attribute each callback's time.

Time unit: **nanoseconds** throughout the code base.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

_INF = float("inf")

#: A scheduled event, ``[time, priority, seq, callback, label]``: the
#: heap entry itself, returned by :meth:`Engine.schedule` as the handle
#: :meth:`Engine.cancel` takes.  ``callback`` is ``None`` once the event
#: has fired or been cancelled.
EventHandle = List[Any]


class RepeatingTimer:
    """A self-re-arming periodic callback (see :meth:`Engine.every`).

    Used by the observability sampler: the periodic event is ordinary
    engine traffic, so determinism (same-time ordering by seq) is
    untouched.  The series runs until the engine stops running it.
    """

    __slots__ = ("engine", "interval", "callback", "priority", "label")

    def __init__(
        self,
        engine: "Engine",
        interval: float,
        callback: Callable[[], Any],
        priority: int,
        label: str,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.engine = engine
        self.interval = interval
        self.callback = callback
        self.priority = priority
        self.label = label
        engine.schedule_after(interval, self._fire, priority=priority, label=label)

    def _fire(self) -> None:
        self.callback()
        self.engine.schedule_after(
            self.interval, self._fire, priority=self.priority, label=self.label
        )


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
        self._heap: List[EventHandle] = []
        self._seq: int = 0
        self._dead: int = 0  # cancelled entries still in the heap
        self._discarded: int = 0  # entries that left the heap unfired
        self._stop: bool = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute ``time``.

        ``time`` must not be in the past.  Lower ``priority`` runs first
        among same-time events.  Returns the event's handle, which the
        caller may pass to :meth:`cancel`.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} ns; now is {self.now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        event: EventHandle = [time, priority, seq, callback, label]
        heappush(self._heap, event)
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback, priority=priority, label=label)

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> RepeatingTimer:
        """Run ``callback`` every ``interval`` ns (first at now+interval).

        Returns the :class:`RepeatingTimer`.  The series re-arms itself
        forever, so a repeating event alone keeps the queue non-empty:
        end the run with ``run(until=)`` or :meth:`request_stop`.
        """
        return RepeatingTimer(self, interval, callback, priority, label)

    def cancel(self, event: EventHandle) -> None:
        """Cancel a pending event in O(1); the run loop skips it.

        Cancelling an event that already fired or was already cancelled
        is a no-op.
        """
        if event[3] is not None:
            event[3] = None  # release the closure
            self._dead += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
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
        pop = heappop
        horizon = _INF if until is None else until
        limit = -1 if max_events is None else max_events
        fired = 0
        now = self.now
        self._stop = False
        if horizon < now:
            return  # horizon already in the past: nothing can fire
        while heap:
            if fired == limit:
                return
            event = pop(heap)
            callback = event[3]
            if callback is None:  # cancelled
                self._dead -= 1
                self._discarded += 1
                continue
            time = event[0]
            if time != now:
                # New timestamp: check the horizon and advance the
                # clock.  Same-time events (the cascade case) skip both.
                if time > horizon:
                    heappush(heap, event)  # keys are unique: order holds
                    break
                self.now = now = time
            event[3] = None  # mark fired; cancel() becomes a no-op
            fired += 1
            callback()
            if self._stop:
                self._stop = False
                return
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
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return len(self._heap) - self._dead

    @property
    def events_fired(self) -> int:
        """Total number of events fired so far, the running one included.

        O(1) and exact at any moment: every sequence number belongs to
        an event still queued, one removed unfired, or one fired.
        """
        return self._seq - len(self._heap) - self._discarded
