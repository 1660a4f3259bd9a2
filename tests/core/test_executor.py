"""The shared pool executor (used by both runner and campaigns)."""

import pytest

from repro.core.executor import error_entry, map_tasks, to_jsonable

pytestmark = pytest.mark.smoke


def _double(x):
    return {"status": "ok", "value": 2 * x}


def _explode(x):
    raise ValueError(f"boom {x}")


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


def test_error_entry_shape():
    entry = error_entry(RuntimeError("nope"), with_traceback=False)
    assert entry == {"type": "RuntimeError", "message": "nope"}


def test_to_jsonable_remains_available_for_both_subsystems():
    from dataclasses import dataclass

    @dataclass
    class Point:
        x: int

    assert to_jsonable({(1, 2): [Point(3)]}) == {"(1, 2)": [{"x": 3}]}
