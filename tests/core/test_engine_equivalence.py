"""The event kernel against the ``Event``-object kernel it replaced.

``repro.core.engine`` keeps each scheduled event as one list that is
both heap entry and handle, and derives ``pending``/``events_fired``
from the heap.  ``tests/core/reference_engine.py`` keeps the kernel it
replaced: one ``Event`` object per callback, ``Event.cancel()``, and
counters batched per run.  Both kernels run the same generated program
— schedules at random times and priorities (at ``now`` and from inside
callbacks), cancels of random handles (pending, fired, already
cancelled, drained, from inside callbacks), ``run(until=)``,
``run(max_events=)``, ``step()``, ``drain()`` and ``request_stop()``
(also from callbacks) — and must agree after every top-level call on
the firing order, ``now``, ``pending`` and ``events_fired``.
``events_fired`` is compared only between calls: the reference's count
is stale while a run is in progress.
"""

from functools import partial
from typing import Any, Callable, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.engine import Engine
from tests.core import reference_engine

#: Cap on events per program, so callbacks that schedule more events
#: cannot chain forever.
MAX_EVENTS = 60

#: Offsets from ``now`` (ns): small integers, so timestamps collide.
_offsets = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0])
_priorities = st.integers(min_value=-1, max_value=2)
_handle_index = st.integers(min_value=0, max_value=200)

_schedule = st.tuples(st.just("schedule"), _offsets, _priorities)
_cancel = st.tuples(st.just("cancel"), _handle_index)

#: What a callback does when it fires.
_callback_action = st.one_of(
    _schedule,
    _cancel,
    st.just(("stop",)),
    st.just(("drain",)),
)
_script = st.lists(_callback_action, max_size=3)

#: What the test does between calls.
_call = st.one_of(
    _schedule,
    _cancel,
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 4.0, 9.0, 20.0])),
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    ),
    st.just(("step",)),
    st.just(("drain",)),
    st.just(("stop",)),
)


class Program:
    """Drives one kernel; every event's callback runs a script."""

    def __init__(
        self,
        engine: Any,
        cancel: Callable[[Any], None],
        scripts: List[List[Tuple[Any, ...]]],
    ) -> None:
        self.engine = engine
        self.cancel_handle = cancel
        self.scripts = scripts
        self.handles: List[Any] = []
        #: (event id, time) in firing order
        self.fired: List[Tuple[int, float]] = []

    def apply(self, action: Tuple[Any, ...]) -> Any:
        engine = self.engine
        kind = action[0]
        if kind == "schedule":
            _, offset, priority = action
            if len(self.handles) < MAX_EVENTS:
                ident = len(self.handles)
                self.handles.append(
                    engine.schedule(
                        engine.now + offset, partial(self._fire, ident), priority
                    )
                )
        elif kind == "cancel":
            if self.handles:
                self.cancel_handle(self.handles[action[1] % len(self.handles)])
        elif kind == "run":
            _, span, max_events = action
            until = None if span is None else engine.now + span
            engine.run(until=until, max_events=max_events)
        elif kind == "step":
            return engine.step()
        elif kind == "drain":
            engine.drain()
        elif kind == "stop":
            engine.request_stop()
        return None

    def _fire(self, ident: int) -> None:
        self.fired.append((ident, self.engine.now))
        if self.scripts:
            for action in self.scripts[ident % len(self.scripts)]:
                self.apply(action)

    def state(self) -> Tuple[Any, ...]:
        engine = self.engine
        return (list(self.fired), engine.now, engine.pending, engine.events_fired)


def _run_both(calls: List[Tuple[Any, ...]], scripts: List[List[Tuple[Any, ...]]]) -> Program:
    """Run ``calls`` on both kernels, comparing after every call."""
    engine = Engine()
    program = Program(engine, engine.cancel, scripts)
    reference = Program(reference_engine.Engine(), lambda event: event.cancel(), scripts)
    for call in calls:
        assert program.apply(call) == reference.apply(call), call
        assert program.state() == reference.state(), call
    return program


@settings(max_examples=300, deadline=None)
@given(
    calls=st.lists(_call, min_size=1, max_size=40),
    scripts=st.lists(_script, max_size=6),
)
def test_kernel_matches_the_event_object_reference(calls, scripts):
    _run_both(calls, scripts)


def test_a_program_reaching_every_action_matches_the_reference():
    """A fixed program reaching every call and callback action: cancels
    of pending, cancelled, fired and drained handles, drains and stops
    from callbacks and between calls, step and each run form."""
    scripts = [
        [("schedule", 0.0, 1), ("cancel", 3)],  # same-time child, cancel
        [("schedule", 2.0, -1), ("stop",)],
        [("drain",), ("schedule", 1.0, 0)],
        [("cancel", 0)],  # cancels an event that already fired
    ]
    calls = [
        ("schedule", 1.0, 0),
        ("schedule", 1.0, 2),
        ("schedule", 4.0, 0),
        ("schedule", 6.0, 1),
        ("cancel", 2),
        ("cancel", 2),  # already cancelled
        ("run", 2.0, None),
        ("step",),
        ("run", None, 1),
        ("run", None, None),
        ("drain",),
        ("cancel", 1),
        ("schedule", 0.0, 0),
        ("stop",),
        ("run", 9.0, None),
    ]
    assert [ident for ident, _ in _run_both(calls, scripts).fired] == [
        0, 4, 5, 1, 6, 8, 9, 11
    ]
