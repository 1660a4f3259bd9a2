"""Shared process-pool execution with per-task fault isolation.

Both orchestration layers — the artifact suite
(:mod:`repro.experiments.runner`) and the scenario campaign engine
(:mod:`repro.campaigns.trials`) — fan independent simulations out over
a :class:`~concurrent.futures.ProcessPoolExecutor`.  This module holds
the machinery they share so the two subsystems cannot drift:

* **JSON-able payloads** — :func:`to_jsonable` converts arbitrary
  result objects (dataclasses, tuples, non-string dict keys) into
  plain JSON types, because everything crossing the pool boundary is
  persisted to disk afterwards.
* **Structured errors** — :func:`error_entry` folds an exception into a
  ``{"type", "message", "traceback"}`` dict; a crashing task becomes a
  recordable result instead of aborting the run.
* **The pool loop** — :func:`map_tasks` runs module-level worker
  functions over picklable argument tuples, yielding ``(key, payload)``
  pairs in completion order.
* **The supervisor** — :func:`supervise_tasks` is the fault-tolerant
  pool loop both front-ends actually run on: every task gets a
  wall-clock **deadline**, failures are classified **transient vs
  deterministic** (:class:`TransientError`, broken pools and deadline
  expiries are transient; ordinary harness exceptions are not),
  transient failures are **retried** with seeded exponential backoff +
  jitter (:class:`RetryPolicy`), a worker killed hard enough to break
  the shared pool triggers a **pool rebuild** that requeues only the
  in-flight tasks instead of poisoning the batch, and tasks that keep
  failing are **quarantined** as structured ``{"status":
  "quarantined", "attempts": [...]}`` payloads.

Workers must be module-level functions and their arguments/payloads
picklable; closures do not survive the pool boundary.  The supervisor
additionally exposes the deterministic fault-injection hook of
:mod:`repro.faults` at the worker boundary (env-gated via
``REPRO_FAULT_PLAN``; zero-cost when unset), so the retry/recovery
machinery above is itself exercised by chaos runs, not just mocks.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import heapq
import itertools
import os
import random
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

__all__ = [
    "FAULT_PLAN_ENV",
    "RetryPolicy",
    "TransientError",
    "error_entry",
    "map_tasks",
    "supervise_tasks",
    "task_id_of",
    "to_jsonable",
]

#: Environment variable naming (or inlining) the active fault plan; see
#: :mod:`repro.faults`.  Checked by name here so the fault-free path
#: never imports the faults package.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Synthesized error type recorded when a task blows its deadline.
DEADLINE_ERROR_TYPE = "TaskDeadlineExceeded"

#: ``on_event`` subscriber signature for :func:`supervise_tasks`.
SuperviseEventFn = Callable[[str, Dict[str, Any]], None]


class TransientError(RuntimeError):
    """Failures worth retrying: infrastructure trouble, not task logic.

    Raise (or subclass) this from a worker to mark the failure as
    retryable; the supervisor also treats broken pools, connection/EOF
    errors and deadline expiries as transient.  Everything else is
    deterministic — retrying would only reproduce it.
    """


#: Exception types classified transient wherever :func:`error_entry`
#: records them.  ``concurrent.futures.TimeoutError`` is a distinct
#: class from the builtin on older interpreters, so both are listed.
TRANSIENT_EXCEPTIONS: Tuple[Type[BaseException], ...] = (
    TransientError,
    BrokenProcessPool,
    ConnectionError,
    EOFError,
    TimeoutError,
    concurrent.futures.TimeoutError,
)


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
    ``as_completed``.  Transient failures (see
    :data:`TRANSIENT_EXCEPTIONS`) carry ``"transient": true`` so the
    classification crosses the process-pool boundary with the payload.
    """
    entry: Dict[str, Any] = {"type": type(exc).__name__, "message": str(exc)}
    if with_traceback:
        entry["traceback"] = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    if isinstance(exc, TRANSIENT_EXCEPTIONS):
        entry["transient"] = True
    return entry


def task_id_of(key: Any) -> str:
    """Canonical string identity of a task key (fault-plan matching).

    Tuple keys join with ``:`` — a campaign trial keyed ``(sid, t)``
    becomes ``"<sid>:<t>"`` — so seeded fault plans can address
    individual tasks with stable ``fnmatch`` patterns.
    """
    if isinstance(key, tuple):
        return ":".join(str(part) for part in key)
    return str(key)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Deadline/retry/backoff knobs for :func:`supervise_tasks`.

    ``retries`` is the transient-failure retry budget *per task* (total
    attempts = retries + 1); deterministic failures are never retried.
    ``timeout`` is the per-attempt wall-clock deadline in seconds
    (pool mode only — an in-process worker cannot be preempted), after
    which the hung worker is killed, the pool rebuilt, and the task
    charged a transient attempt.  Backoff before retry ``n`` (1-based)
    is ``min(backoff_max, backoff_base * backoff_factor**(n-1))``
    scaled by a seeded jitter in ``[1-jitter, 1+jitter]`` — the jitter
    RNG is derived from ``(seed, task, attempt)`` so reruns sleep
    identically.
    """

    retries: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    @property
    def max_attempts(self) -> int:
        return max(1, self.retries + 1)

    def backoff_delay(self, task_id: str, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based) of a task."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        rng = random.Random(f"{self.seed}:{task_id}:{attempt}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def validate(self) -> "RetryPolicy":
        """Check every knob, returning ``self`` for chaining."""
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")
        return self


def _transient_entry_of(payload: Any) -> Optional[Dict[str, Any]]:
    """The error entry when ``payload`` records a *transient* failure."""
    if not isinstance(payload, dict) or payload.get("status") != "error":
        return None
    entry = payload.get("error")
    if isinstance(entry, dict) and entry.get("transient"):
        return entry
    return None


def _deadline_entry(timeout: float, attempt: int) -> Dict[str, Any]:
    return {
        "type": DEADLINE_ERROR_TYPE,
        "message": (
            f"task exceeded its {timeout:g}s wall-clock deadline "
            f"(attempt {attempt})"
        ),
        "transient": True,
    }


def _run_task(
    worker: Callable[..., Dict[str, Any]],
    args: Tuple[Any, ...],
    task_id: str,
    attempt: int,
) -> Dict[str, Any]:
    """Worker-process entry point wrapping the real worker function.

    This is the boundary where the deterministic fault-injection hook
    fires (env-gated; see :mod:`repro.faults`): a plan rule matching
    ``(task_id, attempt)`` can raise, hang, crash the process, or delay
    before the real worker runs.  With ``REPRO_FAULT_PLAN`` unset this
    adds one dict lookup to the fault-free path.
    """
    if os.environ.get(FAULT_PLAN_ENV):
        from repro import faults

        faults.fire(task_id, attempt)
    return worker(*args)


# ----------------------------------------------------------------------
# Plain pool loop (legacy contract: no retries, batch poisoned by a
# broken pool).  Kept for callers that want the raw behavior; both
# orchestration front-ends run on supervise_tasks below.
# ----------------------------------------------------------------------
def map_tasks(
    worker: Callable[..., Dict[str, Any]],
    tasks: Iterable[Tuple[Any, Tuple[Any, ...]]],
    *,
    jobs: Optional[int] = None,
) -> Iterator[Tuple[Any, Dict[str, Any]]]:
    """Run ``worker(*args)`` for every ``(key, args)`` task.

    Yields ``(key, payload)`` in completion order.  With ``jobs > 1``
    and more than one task, work fans out over a process pool sized
    ``min(jobs, len(tasks))`` (``jobs=None`` means ``os.cpu_count()``);
    otherwise everything runs inline in the caller's process.

    The worker should return a dict with a ``"status"`` key and never
    raise (catch exceptions into :func:`error_entry` payloads so the
    traceback captured is the worker-process one).  If the worker leaks
    an exception anyway, or the future itself fails — broken pool,
    unpicklable payload — the yielded payload is ``{"status": "error",
    "error": error_entry(exc)}``.
    """
    task_list = list(tasks)
    max_workers = jobs if jobs is not None else (os.cpu_count() or 1)
    if max_workers > 1 and len(task_list) > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(max_workers, len(task_list))
        ) as pool:
            futures = {
                pool.submit(worker, *args): key for key, args in task_list
            }
            for future in concurrent.futures.as_completed(futures):
                key = futures[future]
                try:
                    payload = future.result()
                except Exception as exc:  # e.g. BrokenProcessPool
                    payload = {"status": "error", "error": error_entry(exc)}
                yield key, payload
    else:
        for key, args in task_list:
            try:
                payload = worker(*args)
            except Exception as exc:
                payload = {"status": "error", "error": error_entry(exc)}
            yield key, payload


# ----------------------------------------------------------------------
# Supervised pool loop: deadlines, retries, pool recovery, quarantine
# ----------------------------------------------------------------------
@dataclass
class _Task:
    """Supervisor-side state for one task across its attempts."""

    key: Any
    args: Tuple[Any, ...]
    task_id: str
    attempt: int = 0
    errors: List[Dict[str, Any]] = field(default_factory=list)


def _now() -> float:
    """Wall-clock for deadlines/backoff (harness concern, never results)."""
    return time.monotonic()  # repro-lint: allow(wall-clock)


def supervise_tasks(
    worker: Callable[..., Dict[str, Any]],
    tasks: Iterable[Tuple[Any, Tuple[Any, ...]]],
    *,
    jobs: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    on_event: Optional[SuperviseEventFn] = None,
) -> Iterator[Tuple[Any, Dict[str, Any]]]:
    """Fault-tolerant :func:`map_tasks`: deadlines, retries, recovery.

    Same contract — yields ``(key, payload)`` in completion order, a
    fault-free run produces payloads byte-identical to ``map_tasks`` —
    plus the resilience semantics of :class:`RetryPolicy`:

    * a payload recording a **transient** failure (see
      :func:`error_entry`) is retried with seeded backoff until the
      attempt budget runs out, then yielded as ``{"status":
      "quarantined", "attempts": [...], "error": <last>}``;
    * **deterministic** failures yield immediately (retrying would only
      reproduce them), annotated with ``attempt_errors`` when earlier
      transient attempts preceded them;
    * a task exceeding ``policy.timeout`` has its worker killed and the
      pool rebuilt; the hung task is charged a transient attempt while
      the other in-flight tasks are requeued free of charge;
    * a **broken pool** (worker crashed hard) is rebuilt and every
      in-flight task requeued, each charged one transient attempt (the
      culprit cannot be told apart from its collateral);
    * tasks that succeed after retries carry ``"retries": n`` and
      ``"attempt_errors": [...]`` forensic annotations.

    ``on_event`` (optional) observes the recovery machinery:
    ``task.retry``, ``task.timeout``, ``task.quarantined`` and
    ``pool.rebuild`` events with structured fields.

    ``KeyboardInterrupt`` aborts cleanly: pending futures are
    cancelled, worker processes terminated, and the interrupt
    re-raised — no orphaned pool.
    """
    policy = (policy or RetryPolicy()).validate()
    task_list = [
        _Task(key=key, args=tuple(args), task_id=task_id_of(key))
        for key, args in tasks
    ]
    seen: Dict[str, int] = {}
    for task in task_list:
        seen[task.task_id] = seen.get(task.task_id, 0) + 1
    duplicates = sorted(tid for tid, count in seen.items() if count > 1)
    if duplicates:
        raise ValueError(f"duplicate task ids: {duplicates}")

    max_workers = jobs if jobs is not None else (os.cpu_count() or 1)
    if max_workers > 1 and len(task_list) > 1:
        yield from _supervise_pool(
            worker,
            task_list,
            min(max_workers, len(task_list)),
            policy,
            on_event,
        )
    else:
        yield from _supervise_inline(worker, task_list, policy, on_event)


def _emit(
    on_event: Optional[SuperviseEventFn], event: str, **fields: Any
) -> None:
    if on_event is not None:
        on_event(event, fields)


def _final_payload(task: _Task, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Attach retry forensics to a task's final (non-quarantine) payload."""
    if not task.errors:
        return payload
    annotated = dict(payload)
    annotated["retries"] = len(task.errors)
    annotated["attempt_errors"] = list(task.errors)
    return annotated


def _quarantine_payload(task: _Task) -> Dict[str, Any]:
    return {
        "status": "quarantined",
        "attempts": list(task.errors),
        "error": dict(task.errors[-1]) if task.errors else {},
    }


class _Supervisor:
    """Bookkeeping shared by the pool loop's failure paths."""

    def __init__(
        self,
        policy: RetryPolicy,
        on_event: Optional[SuperviseEventFn],
    ) -> None:
        self.policy = policy
        self.on_event = on_event
        self.pending: Deque[_Task] = collections.deque()
        #: min-heap of (ready_time, tiebreak, task) awaiting backoff
        self.retry_heap: List[Tuple[float, int, _Task]] = []
        self._tie = itertools.count()
        #: finalized (key, payload) pairs awaiting yield
        self.ready: List[Tuple[Any, Dict[str, Any]]] = []

    def transient_failure(self, task: _Task, entry: Dict[str, Any]) -> None:
        """Charge one transient attempt: schedule a retry or quarantine."""
        task.errors.append(entry)
        if task.attempt + 1 < self.policy.max_attempts:
            task.attempt += 1
            delay = self.policy.backoff_delay(task.task_id, task.attempt)
            _emit(
                self.on_event,
                "task.retry",
                key=task.key,
                task=task.task_id,
                attempt=task.attempt,
                delay=round(delay, 3),
                error_type=str(entry.get("type", "?")),
                error=str(entry.get("message", "")),
            )
            heapq.heappush(
                self.retry_heap, (_now() + delay, next(self._tie), task)
            )
        else:
            _emit(
                self.on_event,
                "task.quarantined",
                key=task.key,
                task=task.task_id,
                attempts=len(task.errors),
                error_type=str(entry.get("type", "?")),
                error=str(entry.get("message", "")),
            )
            self.ready.append((task.key, _quarantine_payload(task)))

    def finish(self, task: _Task, payload: Dict[str, Any]) -> None:
        """Route one attempt's payload: retry transient, else finalize."""
        entry = _transient_entry_of(payload)
        if entry is not None:
            self.transient_failure(task, entry)
        else:
            self.ready.append((task.key, _final_payload(task, payload)))

    def collect_ripe_retries(self) -> None:
        now = _now()
        while self.retry_heap and self.retry_heap[0][0] <= now:
            self.pending.append(heapq.heappop(self.retry_heap)[2])

    def drain_ready(self) -> List[Tuple[Any, Dict[str, Any]]]:
        out, self.ready = self.ready, []
        return out


def _terminate_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Hard-stop a pool: kill worker processes, drop queued work."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # already dead / closed
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _supervise_pool(
    worker: Callable[..., Dict[str, Any]],
    task_list: List[_Task],
    width: int,
    policy: RetryPolicy,
    on_event: Optional[SuperviseEventFn],
) -> Iterator[Tuple[Any, Dict[str, Any]]]:
    state = _Supervisor(policy, on_event)
    state.pending.extend(task_list)
    #: future -> (task, absolute deadline or None)
    running: Dict[
        "concurrent.futures.Future[Dict[str, Any]]",
        Tuple[_Task, Optional[float]],
    ] = {}
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=width)
    finished_cleanly = False

    def submit(task: _Task) -> bool:
        """Submit one attempt; False when the pool is already broken."""
        deadline = (
            _now() + policy.timeout if policy.timeout is not None else None
        )
        try:
            future = pool.submit(
                _run_task, worker, task.args, task.task_id, task.attempt
            )
        except (BrokenProcessPool, RuntimeError):
            state.pending.appendleft(task)
            return False
        running[future] = (task, deadline)
        return True

    def rebuild_pool(reason: str, inflight: int) -> None:
        nonlocal pool
        _terminate_pool(pool)
        _emit(
            on_event,
            "pool.rebuild",
            reason=reason,
            inflight=inflight,
            pending=len(state.pending),
        )
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=width)

    def wait_timeout() -> Optional[float]:
        """How long the wait may block before a deadline/retry is due."""
        now = _now()
        deltas = [ready - now for ready, _, _ in state.retry_heap[:1]]
        deltas.extend(
            deadline - now
            for _, (_, deadline) in running.items()
            if deadline is not None
        )
        if not deltas:
            return None
        return min(max(0.01, min(deltas)), 60.0)

    try:
        while state.pending or state.retry_heap or running:
            state.collect_ripe_retries()
            broken = False
            while state.pending and len(running) < width:
                if not submit(state.pending.popleft()):
                    broken = True
                    break

            if running and not broken:
                done, _ = concurrent.futures.wait(
                    list(running),
                    timeout=wait_timeout(),
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    task, _deadline = running.pop(future)
                    try:
                        payload = future.result()
                    except concurrent.futures.BrokenExecutor as exc:
                        broken = True
                        state.transient_failure(task, error_entry(exc))
                        continue
                    except Exception as exc:
                        payload = {"status": "error", "error": error_entry(exc)}
                    state.finish(task, payload)

                # Deadline sweep: kill hung attempts, charge them one
                # transient attempt each.
                now = _now()
                expired = [
                    future
                    for future, (_, deadline) in running.items()
                    if deadline is not None and deadline <= now
                ]
                for future in expired:
                    task, _deadline = running.pop(future)
                    assert policy.timeout is not None
                    _emit(
                        on_event,
                        "task.timeout",
                        key=task.key,
                        task=task.task_id,
                        attempt=task.attempt,
                        timeout=policy.timeout,
                    )
                    state.transient_failure(
                        task, _deadline_entry(policy.timeout, task.attempt)
                    )
                if expired:
                    broken = True  # hung workers only die with the pool
                    reason = "deadline"
                else:
                    reason = "broken-pool"
            elif not running and not broken:
                # Nothing in flight: sleep out the nearest backoff.
                delay = wait_timeout()
                if delay is not None:
                    time.sleep(delay)
                continue
            else:
                reason = "broken-pool"

            if broken:
                survivors = list(running.items())
                running.clear()
                rebuild_pool(reason, len(survivors))
                for _future, (task, _deadline) in survivors:
                    if reason == "deadline":
                        # Collateral of someone else's hang: requeue
                        # without charging the attempt budget.
                        state.pending.append(task)
                    else:
                        state.transient_failure(
                            task,
                            {
                                "type": "BrokenProcessPool",
                                "message": (
                                    "in-flight task lost to a broken "
                                    "process pool; requeued"
                                ),
                                "transient": True,
                            },
                        )

            yield from state.drain_ready()

        pool.shutdown(wait=True)
        finished_cleanly = True
    finally:
        if not finished_cleanly:
            _terminate_pool(pool)


def _supervise_inline(
    worker: Callable[..., Dict[str, Any]],
    task_list: List[_Task],
    policy: RetryPolicy,
    on_event: Optional[SuperviseEventFn],
) -> Iterator[Tuple[Any, Dict[str, Any]]]:
    """In-process supervision: retries/backoff apply, deadlines cannot
    (a single process has no way to preempt its own worker call)."""
    state = _Supervisor(policy, on_event)
    for task in task_list:
        while True:
            try:
                payload = _run_task(worker, task.args, task.task_id, task.attempt)
            except Exception as exc:
                payload = {"status": "error", "error": error_entry(exc)}
            state.finish(task, payload)
            if state.ready:
                break
            # A retry was scheduled; sleep out its backoff inline (the
            # heap entry is consumed here — inline has no event loop).
            state.retry_heap.clear()
            delay = policy.backoff_delay(task.task_id, task.attempt)
            if delay > 0:
                time.sleep(delay)
        yield from state.drain_ready()
