"""Property tests for the event kernel under randomized schedules."""

from hypothesis import given, settings, strategies as st

from repro.core.engine import Engine


@settings(max_examples=80, deadline=None)
@given(times=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_events_always_fire_in_nondecreasing_time_order(times):
    engine = Engine()
    fired = []
    for t in times:
        engine.schedule(t, lambda t=t: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)
    assert engine.now == max(times)


@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=2, max_size=40),
    cancel_index=st.integers(min_value=0, max_value=39),
)
def test_cancellation_removes_exactly_one_event(times, cancel_index):
    engine = Engine()
    fired = []
    events = [
        engine.schedule(t, lambda i=i: fired.append(i)) for i, t in enumerate(times)
    ]
    victim = events[cancel_index % len(events)]
    engine.cancel(victim)
    engine.run()
    assert len(fired) == len(times) - 1
    assert (cancel_index % len(times)) not in fired


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=25)
)
def test_chained_relative_delays_accumulate(delays):
    engine = Engine()
    arrivals = []

    def chain(remaining):
        arrivals.append(engine.now)
        if remaining:
            engine.schedule_after(remaining[0], lambda: chain(remaining[1:]))

    engine.schedule(0.0, lambda: chain(list(delays)))
    engine.run()
    expected = 0.0
    for arrival, delay in zip(arrivals[1:], delays):
        expected += delay
        assert abs(arrival - expected) < 1e-6


@settings(max_examples=30, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=30),
    cutoff=st.floats(min_value=0.0, max_value=1000.0),
)
def test_run_until_is_a_clean_partition(times, cutoff):
    """Events at or before the cutoff fire; later ones stay queued."""
    engine = Engine()
    fired = []
    for t in times:
        engine.schedule(t, lambda t=t: fired.append(t))
    engine.run(until=cutoff)
    assert all(t <= cutoff for t in fired)
    assert len(fired) == sum(1 for t in times if t <= cutoff)
    engine.run()
    assert len(fired) == len(times)
