"""Shared process-pool execution with per-task fault isolation.

Both orchestration layers — the artifact suite
(:mod:`repro.experiments.runner`) and the scenario campaign engine
(:mod:`repro.campaigns.trials`) — fan independent simulations out
through :func:`map_tasks`.  This module holds the machinery they share
so the two subsystems cannot drift:

* **JSON-able payloads** — :func:`to_jsonable` converts arbitrary
  result objects (dataclasses, tuples, non-string dict keys) into
  plain JSON types, because everything crossing the pool boundary is
  persisted to disk afterwards.
* **Structured errors** — :func:`error_entry` folds an exception into a
  ``{"type", "message", "traceback"}`` dict; a failing task becomes a
  recordable result instead of aborting the run.
* **The pool loop** — :func:`map_tasks` runs module-level worker
  functions over picklable argument tuples, yielding ``(key, payload)``
  pairs in completion order.

The failure policy is **fail fast**.  Every simulation here is seeded
and deterministic, so a task that failed once fails the same way on a
retry; instead of retrying, each failure becomes that task's own error
entry and the caller's re-run picks up only the failed work (the
suite's result cache, ``campaign --resume``):

* a raised exception gives an entry with the exception's type;
* a task that outlives ``timeout`` gives a :class:`TaskDeadlineExceeded`
  entry whose traceback shows where it hung;
* a worker that dies hard breaks the pool, and every task that has not
  finished gives a ``BrokenProcessPool`` entry — no rebuild, no requeue;
* any unclean exit (Ctrl-C, a caller abandoning the generator)
  terminates the worker processes instead of waiting on them.

Workers must be module-level functions and their arguments/payloads
picklable; closures do not survive the pool boundary.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import signal
import traceback
from concurrent.futures.process import BrokenProcessPool
from types import FrameType
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

__all__ = [
    "TaskDeadlineExceeded",
    "error_entry",
    "map_tasks",
    "to_jsonable",
]

Worker = Callable[..., Dict[str, Any]]


class TaskDeadlineExceeded(BaseException):
    """Raised inside a task that outlives its :func:`map_tasks` deadline.

    A ``BaseException``, like ``KeyboardInterrupt``, so that the
    ``except Exception`` isolation boundaries inside worker functions
    cannot swallow it and keep the hung task running.
    """


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/tuples/dict-keys to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): to_jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def error_entry(exc: BaseException, with_traceback: bool = True) -> Dict[str, Any]:
    """Fold an exception into the structured error dict persisted on disk.

    The traceback is rendered from the exception object itself
    (``traceback.format_exception``), not the ambient ``sys.exc_info``
    state, so the entry is correct even when built outside an active
    ``except`` block — e.g. folding a future's exception after
    ``as_completed``.
    """
    entry: Dict[str, Any] = {"type": type(exc).__name__, "message": str(exc)}
    if with_traceback:
        entry["traceback"] = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    return entry


def _error_payload(exc: BaseException) -> Dict[str, Any]:
    return {"status": "error", "error": error_entry(exc)}


def _call_with_deadline(
    worker: Worker, args: Tuple[Any, ...], timeout: float
) -> Dict[str, Any]:
    """``worker(*args)`` under a one-shot ``ITIMER_REAL`` timer.

    The ``SIGALRM`` handler raises :class:`TaskDeadlineExceeded` in
    whatever Python frame is running when the timer expires.  Signals
    are only handled between bytecodes, so one long C call finishes
    before the deadline lands.
    """

    def expire(signum: int, frame: Optional[FrameType]) -> None:
        raise TaskDeadlineExceeded(f"task exceeded its {timeout:g}s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            return worker(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _call_isolated(
    worker: Worker, args: Tuple[Any, ...], timeout: Optional[float]
) -> Dict[str, Any]:
    """Run one task (inline or in a pool worker), folding any failure
    into an error payload; ``KeyboardInterrupt`` still propagates."""
    try:
        if timeout is None:
            return worker(*args)
        return _call_with_deadline(worker, args, timeout)
    except (Exception, TaskDeadlineExceeded) as exc:
        return _error_payload(exc)


def _terminate_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Hard-stop a pool: kill worker processes, drop queued work."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # already dead / closed
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def map_tasks(
    worker: Worker,
    tasks: Iterable[Tuple[Any, Tuple[Any, ...]]],
    *,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
) -> Iterator[Tuple[Any, Dict[str, Any]]]:
    """Run ``worker(*args)`` for every ``(key, args)`` task.

    Yields ``(key, payload)`` in completion order.  With ``jobs > 1``
    and more than one task, work fans out over a process pool sized
    ``min(jobs, len(tasks))`` (``jobs=None`` means ``os.cpu_count()``);
    otherwise everything runs inline in the caller's process.

    ``timeout`` (seconds) is each task's wall-clock deadline, armed
    inside the task itself, so it applies the same way inline and in a
    pool; an expired task yields a :class:`TaskDeadlineExceeded` error
    payload and its siblings keep running.  The timer uses ``SIGALRM``,
    so deadlines need a POSIX host and, inline, the main thread.

    The worker should return a dict with a ``"status"`` key and never
    raise (catch exceptions into :func:`error_entry` payloads so the
    traceback captured is the worker-process one).  If the worker leaks
    an exception anyway, or the future itself fails — a worker that
    died and broke the pool, an unpicklable payload — the yielded
    payload is ``{"status": "error", "error": error_entry(exc)}``.

    ``KeyboardInterrupt``, or closing the generator early, terminates
    the pool's worker processes before propagating.
    """
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    task_list = list(tasks)
    max_workers = jobs if jobs is not None else (os.cpu_count() or 1)
    width = min(max_workers, len(task_list))
    if width <= 1:
        for key, args in task_list:
            yield key, _call_isolated(worker, args, timeout)
        return

    pool = concurrent.futures.ProcessPoolExecutor(max_workers=width)
    try:
        futures: Dict["concurrent.futures.Future[Dict[str, Any]]", Any] = {}
        for key, args in task_list:
            try:
                futures[pool.submit(_call_isolated, worker, args, timeout)] = key
            except BrokenProcessPool as exc:  # a worker already died
                yield key, _error_payload(exc)
        for future in concurrent.futures.as_completed(futures):
            try:
                payload = future.result()
            except Exception as exc:  # BrokenProcessPool, unpicklable payload
                payload = _error_payload(exc)
            yield futures[future], payload
    except BaseException:  # Ctrl-C or an abandoned generator
        _terminate_pool(pool)
        raise
    pool.shutdown()
