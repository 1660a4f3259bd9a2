"""Unit tests for the discrete-event kernel."""

import weakref

import pytest

from repro.core.engine import Engine


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(30.0, lambda: fired.append("c"))
    engine.schedule(10.0, lambda: fired.append("a"))
    engine.schedule(20.0, lambda: fired.append("b"))
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 30.0


def test_same_time_events_fire_in_priority_then_fifo_order():
    engine = Engine()
    fired = []
    engine.schedule(5.0, lambda: fired.append("low"), priority=1)
    engine.schedule(5.0, lambda: fired.append("high"), priority=-1)
    engine.schedule(5.0, lambda: fired.append("mid1"), priority=0)
    engine.schedule(5.0, lambda: fired.append("mid2"), priority=0)
    engine.run()
    assert fired == ["high", "mid1", "mid2", "low"]


def test_schedule_after_uses_relative_delay():
    engine = Engine()
    seen = []
    engine.schedule(10.0, lambda: engine.schedule_after(5.0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [15.0]


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule(10.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule(5.0, lambda: None)


def test_negative_delay_raises():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule_after(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(10.0, lambda: fired.append("x"))
    engine.cancel(event)
    engine.schedule(20.0, lambda: fired.append("y"))
    engine.run()
    assert fired == ["y"]


def test_run_until_stops_and_advances_clock():
    engine = Engine()
    fired = []
    engine.schedule(10.0, lambda: fired.append(1))
    engine.schedule(100.0, lambda: fired.append(2))
    engine.run(until=50.0)
    assert fired == [1]
    assert engine.now == 50.0
    engine.run()
    assert fired == [1, 2]


def test_run_until_advances_clock_when_queue_drains_early():
    engine = Engine()
    engine.schedule(10.0, lambda: None)
    engine.run(until=500.0)
    assert engine.now == 500.0


def test_max_events_bounds_execution():
    engine = Engine()
    fired = []
    for i in range(10):
        engine.schedule(float(i), lambda i=i: fired.append(i))
    engine.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_execution_run():
    engine = Engine()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            engine.schedule_after(1.0, lambda: chain(depth + 1))

    engine.schedule(0.0, lambda: chain(0))
    engine.run()
    assert fired == [0, 1, 2, 3]


def test_pending_counts_live_events():
    engine = Engine()
    e1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending == 2
    engine.cancel(e1)
    assert engine.pending == 1


# ----------------------------------------------------------------------
# Edge cases: cancellation, (priority, seq) tie-breaking, empty queues
# ----------------------------------------------------------------------
def test_cancel_from_inside_a_callback_suppresses_the_pending_event():
    engine = Engine()
    fired = []
    victim = engine.schedule(20.0, lambda: fired.append("victim"))
    engine.schedule(10.0, lambda: engine.cancel(victim))
    engine.run()
    assert fired == []
    assert engine.now == 10.0          # the cancelled event never advanced time


def test_cancel_same_time_lower_priority_event_from_a_callback():
    # Cancellation must win even when canceller and victim share a
    # timestamp: the higher-priority event runs first and cancels.
    engine = Engine()
    fired = []
    victim = engine.schedule(5.0, lambda: fired.append("victim"), priority=1)
    engine.schedule(5.0, lambda: engine.cancel(victim), priority=0)
    engine.run()
    assert fired == []


def test_cancel_is_idempotent_and_counts_drop_once():
    engine = Engine()
    event = engine.schedule(5.0, lambda: None)
    assert engine.pending == 1
    engine.cancel(event)
    engine.cancel(event)
    assert engine.pending == 0
    engine.run()
    assert engine.events_fired == 0


def test_cancelled_head_is_skipped_without_firing_during_run_until():
    engine = Engine()
    fired = []
    head = engine.schedule(1.0, lambda: fired.append("head"))
    engine.schedule(2.0, lambda: fired.append("tail"))
    engine.cancel(head)
    engine.run(until=5.0)
    assert fired == ["tail"]
    assert engine.now == 5.0
    assert engine.events_fired == 1


def test_same_timestamp_orders_by_priority_then_sequence_interleaved():
    # Interleave priorities at scheduling time; execution must sort by
    # (priority, seq), i.e. seq only breaks ties *within* a priority.
    engine = Engine()
    fired = []
    engine.schedule(7.0, lambda: fired.append("b0"), priority=1)
    engine.schedule(7.0, lambda: fired.append("a0"), priority=0)
    engine.schedule(7.0, lambda: fired.append("b1"), priority=1)
    engine.schedule(7.0, lambda: fired.append("a1"), priority=0)
    engine.run()
    assert fired == ["a0", "a1", "b0", "b1"]


def test_schedule_at_exactly_now_is_allowed_and_fires():
    engine = Engine()
    fired = []
    engine.schedule(10.0, lambda: engine.schedule(10.0, lambda: fired.append("x")))
    engine.run()
    assert fired == ["x"]
    assert engine.now == 10.0


def test_empty_queue_run_is_a_noop():
    engine = Engine()
    engine.run()
    assert engine.now == 0.0
    assert engine.events_fired == 0
    assert engine.pending == 0


def test_empty_queue_run_with_until_still_advances_the_clock():
    engine = Engine()
    engine.run(until=123.0)
    assert engine.now == 123.0
    assert engine.events_fired == 0


def test_run_with_only_cancelled_events_drains_cleanly():
    engine = Engine()
    for t in (1.0, 2.0, 3.0):
        engine.cancel(engine.schedule(t, lambda: None))
    engine.run(until=10.0)
    assert engine.events_fired == 0
    assert engine.pending == 0
    assert engine.now == 10.0


def test_events_fired_counts_across_multiple_runs():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    engine.schedule(2.0, lambda: None)
    engine.run()
    assert engine.events_fired == 2


# ----------------------------------------------------------------------
# Fast-path kernel behaviors (entry handles, derived counts, stop flag)
# ----------------------------------------------------------------------
def test_pending_is_maintained_without_heap_scans():
    engine = Engine()
    events = [engine.schedule(float(i), lambda: None) for i in range(5)]
    assert engine.pending == 5
    engine.cancel(events[2])
    assert engine.pending == 4
    engine.run()
    assert engine.pending == 0


def test_double_cancel_decrements_pending_once():
    engine = Engine()
    event = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.cancel(event)
    engine.cancel(event)
    assert engine.pending == 1


def test_cancel_after_fire_is_a_noop():
    engine = Engine()
    event = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.run(until=1.5)
    engine.cancel(event)  # already fired: must not corrupt the counts
    assert engine.pending == 1
    assert engine.events_fired == 1


def test_cancelled_event_releases_its_callback():
    engine = Engine()
    closure = lambda: None  # noqa: E731 - identity matters here
    released = weakref.ref(closure)
    event = engine.schedule(1.0, closure)
    engine.cancel(event)
    del closure
    # The callback slot is cleared (the handle reads as no longer
    # pending) and the engine keeps no other reference to the closure.
    assert event[3] is None
    assert released() is None
    assert engine.pending == 0


def test_fired_event_releases_its_callback():
    engine = Engine()
    closure = lambda: None  # noqa: E731 - identity matters here
    released = weakref.ref(closure)
    event = engine.schedule(1.0, closure)
    del closure
    engine.run()
    assert event[3] is None
    assert released() is None


def test_request_stop_halts_before_the_next_event():
    engine = Engine()
    fired = []
    engine.schedule(1.0, lambda: (fired.append(1), engine.request_stop()))
    engine.schedule(2.0, lambda: fired.append(2))
    engine.run()
    assert fired == [1]
    assert engine.pending == 1
    engine.run()  # a fresh run resumes normally
    assert fired == [1, 2]


def test_request_stop_skips_the_until_clock_advance():
    engine = Engine()
    engine.schedule(1.0, engine.request_stop)
    engine.run(until=100.0)
    assert engine.now == 1.0


def test_run_with_until_in_the_past_fires_nothing():
    engine = Engine()
    fired = []
    engine.schedule(5.0, lambda: fired.append(1))
    engine.run()  # now == 5.0
    engine.schedule(5.0, lambda: fired.append(2))
    engine.run(until=3.0)  # horizon before now: nothing may fire
    assert fired == [1]
    assert engine.now == 5.0


def test_event_exposes_its_sort_key_fields():
    engine = Engine()
    event = engine.schedule(7.0, lambda: None, priority=3, label="x")
    time, priority, seq, _callback, label = event
    assert (time, priority, seq) == (7.0, 3, 0)
    assert label == "x"


def test_events_fired_is_exact_when_a_callback_raises():
    engine = Engine()
    engine.schedule(1.0, lambda: None)

    def boom():
        raise RuntimeError("boom")

    engine.schedule(2.0, boom)
    with pytest.raises(RuntimeError):
        engine.run()
    assert engine.events_fired == 2  # the raising event still fired
    assert engine.pending == 0


def test_run_until_is_inclusive():
    engine = Engine()
    fired = []
    engine.schedule(10.0, lambda: fired.append("at-horizon"))
    engine.schedule(10.0 + 1e-9, lambda: fired.append("past-horizon"))
    engine.run(until=10.0)
    assert fired == ["at-horizon"]
    assert engine.now == 10.0


def test_repeated_run_until_fires_each_event_once():
    """Successive run(until=) horizons fire every event exactly once,
    in time order, and land the clock on each horizon."""
    engine = Engine()
    fired = []
    for t in (2.5, 7.5, 12.5, 17.5):
        engine.schedule(t, lambda t=t: fired.append(t))
    for horizon in (5.0, 10.0, 15.0, 20.0):
        engine.run(until=horizon)
        assert engine.now == horizon
    assert fired == [2.5, 7.5, 12.5, 17.5]


def test_max_events_none_resumes_after_a_capped_run():
    engine = Engine()
    fired = []
    for t in range(5):
        engine.schedule(float(t), lambda t=t: fired.append(t))
    engine.run(max_events=2)
    assert fired == [0, 1]
    engine.run(max_events=None)
    assert fired == [0, 1, 2, 3, 4]


def test_request_stop_freezes_clock_until_the_next_run():
    engine = Engine()
    fired = []

    def stopper():
        fired.append(engine.now)
        engine.request_stop()

    engine.schedule(3.0, stopper)
    engine.schedule(9.0, lambda: fired.append(engine.now))
    engine.run(until=50.0)
    # stop exits before the horizon advance: the clock stays at the
    # stopping event, and the next run picks up from there
    assert engine.now == 3.0
    engine.run(until=50.0)
    assert fired == [3.0, 9.0]
    assert engine.now == 50.0


def test_repeating_timer_fires_on_period_and_stops():
    """The series fires every interval and stops with the run: each
    ``run(until=)`` leaves exactly the next tick queued."""
    engine = Engine()
    fired = []
    engine.every(10.0, lambda: fired.append(engine.now))
    engine.run(until=35.0)
    assert fired == [10.0, 20.0, 30.0]
    assert engine.pending == 1
    engine.run(until=50.0)
    assert fired == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert engine.pending == 1
    assert engine.now == 50.0


def test_counts_read_inside_a_callback_are_exact_mid_run():
    """``events_fired`` read from a callback counts every event fired so
    far, in this run and earlier ones, the running event included;
    ``pending`` counts the live events still queued."""
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: None)
    engine.run()
    for t in (2.0, 2.0, 3.0):
        engine.schedule(t, lambda: seen.append((engine.events_fired, engine.pending)))
    engine.cancel(engine.schedule(2.5, lambda: None))
    engine.schedule(9.0, lambda: None)
    engine.run(until=5.0)
    assert seen == [(2, 3), (3, 2), (4, 1)]
    assert (engine.events_fired, engine.pending) == (4, 1)


def test_schedule_after_and_every_enter_through_schedule(monkeypatch):
    """Every event enters through ``Engine.schedule``: a wrapper put on
    the class (as perfbench's traced run does) must see ``schedule_after``
    and ``every``, on the first arm and on every re-arm."""
    seen = []
    original = Engine.schedule

    def schedule(self, time, callback, priority=0, label=""):
        seen.append(label)
        return original(self, time, callback, priority, label)

    monkeypatch.setattr(Engine, "schedule", schedule)
    engine = Engine()
    engine.schedule_after(
        1.0,
        lambda: engine.schedule_after(1.0, lambda: None, label="after-2"),
        label="after-1",
    )
    engine.every(3.0, lambda: None, label="tick")
    assert seen == ["after-1", "tick"]
    engine.run(until=10.0)
    assert seen == ["after-1", "tick", "after-2", "tick", "tick", "tick"]
    # Everything that fired was scheduled through the wrapper; the one
    # wrapped event that did not fire is the next tick, still queued.
    assert engine.events_fired == len(seen) - 1
    assert engine.pending == 1
