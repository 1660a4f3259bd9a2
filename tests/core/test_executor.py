"""The shared pool executor (used by both runner and campaigns)."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.executor import error_entry, map_tasks, to_jsonable

pytestmark = pytest.mark.smoke

#: deadline for the hang tests; each run must end within about twice it
DEADLINE = 0.5


def _double(x):
    return {"status": "ok", "value": 2 * x}


def _explode(x):
    raise ValueError(f"boom {x}")


def _sleepy(seconds):
    time.sleep(seconds)
    return {"status": "ok", "value": seconds}


def _exit_on_one(x):
    if x == 1:
        os._exit(3)
    time.sleep(5)  # still running or queued when the sibling dies
    return {"status": "ok", "value": x}


def test_map_tasks_inline_yields_every_task():
    results = dict(map_tasks(_double, [("a", (1,)), ("b", (2,))], jobs=1))
    assert results == {
        "a": {"status": "ok", "value": 2},
        "b": {"status": "ok", "value": 4},
    }


def test_map_tasks_pool_yields_every_task():
    tasks = [(i, (i,)) for i in range(5)]
    results = dict(map_tasks(_double, tasks, jobs=2))
    assert results == {i: {"status": "ok", "value": 2 * i} for i in range(5)}


def test_map_tasks_folds_raising_worker_into_error_payload():
    # Workers are *supposed* to isolate themselves; if one leaks an
    # exception anyway, the batch still completes with a structured
    # error payload for that task.
    for jobs in (1, 2):
        results = dict(
            map_tasks(_explode, [("x", (1,)), ("y", (2,))], jobs=jobs)
        )
        assert set(results) == {"x", "y"}
        for payload in results.values():
            assert payload["status"] == "error"
            assert payload["error"]["type"] == "ValueError"
            assert "boom" in payload["error"]["message"]


def test_map_tasks_single_task_runs_inline_even_with_jobs():
    results = dict(map_tasks(_double, [("only", (3,))], jobs=8))
    assert results == {"only": {"status": "ok", "value": 6}}


@pytest.mark.parametrize(
    "jobs, tasks",
    [
        (1, [("hang", (30,)), ("fast", (0.01,))]),
        (8, [("hang", (30,))]),
        # Both workers hang; "fast" only runs if they survive the deadline.
        (2, [("hang", (30,)), ("hang-2", (30,)), ("fast", (0.01,))]),
    ],
    ids=["inline", "single-task", "pool"],
)
def test_deadline_ends_a_hung_task(jobs, tasks):
    started = time.monotonic()
    results = dict(map_tasks(_sleepy, tasks, jobs=jobs, timeout=DEADLINE))
    assert time.monotonic() - started < 2 * DEADLINE
    assert set(results) == {key for key, _args in tasks}
    for key, payload in results.items():
        if key.startswith("hang"):
            assert payload["status"] == "error"
            assert payload["error"]["type"] == "TaskDeadlineExceeded"
            # The traceback shows where the task hung.
            assert "in _sleepy" in payload["error"]["traceback"]
        else:
            assert payload == {"status": "ok", "value": 0.01}


def test_timeout_must_be_positive():
    with pytest.raises(ValueError, match="timeout"):
        list(map_tasks(_double, [("a", (1,))], timeout=0))


def test_dead_worker_gives_every_unfinished_task_an_error_entry():
    started = time.monotonic()
    results = dict(map_tasks(_exit_on_one, [(i, (i,)) for i in range(4)], jobs=2))
    # No rebuild, no requeue, no waiting on the 5 s siblings.
    assert time.monotonic() - started < 2.5
    assert set(results) == set(range(4))
    for payload in results.values():
        assert payload["status"] == "error"
        assert payload["error"]["type"] == "BrokenProcessPool"


def test_keyboard_interrupt_in_pool_mode_tears_the_pool_down():
    # Two 5 s tasks in flight: the interrupt must not wait for them.
    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    started = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            list(map_tasks(_sleepy, [("a", (5,)), ("b", (5,))], jobs=2))
    finally:
        timer.cancel()
    assert time.monotonic() - started < 0.3 + 1.0
    for _ in range(50):
        if not multiprocessing.active_children():
            break
        time.sleep(0.1)
    assert multiprocessing.active_children() == []


def test_error_entry_shape():
    entry = error_entry(RuntimeError("nope"), with_traceback=False)
    assert entry == {"type": "RuntimeError", "message": "nope"}


def test_error_entry_uses_the_exceptions_own_traceback():
    # Folding a future's exception happens *outside* any active except
    # block, where format_exc() would render the ambient (empty)
    # context as "NoneType: None".  The entry must come from the
    # exception object itself.
    try:
        raise RuntimeError("the real failure")
    except RuntimeError as exc:
        captured = exc
    entry = error_entry(captured)
    assert entry["type"] == "RuntimeError"
    assert "RuntimeError: the real failure" in entry["traceback"]
    assert "NoneType" not in entry["traceback"]


def test_to_jsonable_remains_available_for_both_subsystems():
    from dataclasses import dataclass

    @dataclass
    class Point:
        x: int

    assert to_jsonable({(1, 2): [Point(3)]}) == {"(1, 2)": [{"x": 3}]}
