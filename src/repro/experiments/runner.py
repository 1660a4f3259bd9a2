"""Experiment orchestration: parallel, fault-isolated, cached suite runs.

``run_suite`` executes any subset of the registered artifact harnesses
(see :mod:`repro.experiments.registry` — all fourteen paper artifacts
plus extensions) and writes one JSON document per artifact into a
results directory, plus a ``summary.json`` index, so downstream
tooling — plotting notebooks, regression dashboards — can consume
reproduction results without re-running simulations.

Execution model:

* **Parallel** — registered experiments are independent simulations,
  so they fan out over the shared pool loop
  (:func:`repro.core.executor.map_tasks`; ``jobs=N``, default
  ``os.cpu_count()``), the same loop the scenario campaign engine
  uses.
* **Fault-isolated, fail-fast** — a crashing harness, one that outlives
  ``timeout``, or one whose worker process dies records a structured
  error entry (type, message, traceback) in ``summary.json``; every
  other experiment still completes and the suite does not raise.
  Nothing is retried: the harnesses are deterministic, so the next
  cached run re-runs exactly the failed experiments.
* **Cached** — each result embeds a content hash of experiment name +
  run kwargs + package version.  Re-runs over the same results
  directory skip artifacts whose hash matches (``use_cache=False`` or
  ``force=True`` to override).
* **Resumable** — ``summary.json`` is flushed atomically after every
  completion, so an interrupted run leaves a consistent index and the
  next invocation picks up where it stopped via the cache.

CLI front-end: ``python -m repro.cli suite --jobs 8 --only fig10 table2``.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro import __version__
from repro.analysis.storage import (
    CorruptResultError,
    PathLike,
    SummaryIndex,
    atomic_write_json,
    content_key,
    load_checked_json,
    quarantine_corrupt,
)
from repro.core.executor import error_entry, map_tasks, to_jsonable
from repro.experiments import registry
from repro.obs.log import get_logger


def _cache_key(name: str, module: str, kwargs: Dict[str, Any]) -> str:
    """Content hash identifying one experiment run (for cache hits)."""
    return content_key(
        {
            "experiment": name,
            "module": module,
            "kwargs": to_jsonable(kwargs),
            "version": __version__,
        }
    )


def _payload_from_result(name: str, result: Any, elapsed: float) -> Dict[str, Any]:
    payload = {
        "experiment": name,
        "status": "ok",
        # advisory wall-clock, never part of result identity
        "elapsed_seconds": round(elapsed, 3),  # repro-lint: allow(float-format-drift)
        "result": to_jsonable(result),
    }
    if hasattr(result, "format_table"):
        payload["table"] = result.format_table()
    return payload


def _error_payload(name: str, exc: BaseException) -> Dict[str, Any]:
    return {"experiment": name, "status": "error", "error": error_entry(exc)}


def _execute_spec(name: str, module: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-process entry point: import the harness and run it.

    Takes only picklable arguments and returns only JSON-able payloads,
    so it crosses the process-pool boundary in both directions; any
    exception is folded into a structured error payload rather than
    raised, which is what gives the suite per-experiment fault
    isolation.
    """
    try:
        run = getattr(importlib.import_module(module), "run")
        started = time.perf_counter()
        result = run(**kwargs)
        return _payload_from_result(name, result, time.perf_counter() - started)
    except Exception as exc:  # isolation boundary; Ctrl-C still propagates
        return _error_payload(name, exc)


def _cached_payload(path: Path, key: str) -> Optional[Dict[str, Any]]:
    """Return the previously persisted payload iff it matches ``key``.

    An unparseable or checksum-mismatched file is moved to a
    ``*.corrupt`` sidecar (and the experiment re-run) instead of being
    silently ignored in place.
    """
    if not path.exists():
        return None
    try:
        payload = load_checked_json(path)
    except OSError:
        return None
    except CorruptResultError as exc:
        sidecar = quarantine_corrupt(path)
        get_logger().warning(
            "suite.corrupt_result",
            file=path.name,
            reason=exc.reason,
            sidecar=sidecar.name,
        )
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("cache_key") != key or payload.get("status") != "ok":
        return None
    return payload


def _invalidate_stale_result(path: Path) -> None:
    """Strip the cache key from a result file after a failed re-run.

    The old data stays readable, but a later cached run can no longer
    mistake it for a fresh success and silently mask the failure.
    """
    if not path.exists():
        return
    try:
        stale = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return
    if stale.pop("cache_key", None) is not None:
        atomic_write_json(path, stale)


def _summary_entry(payload: Dict[str, Any], path: Path) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "experiment": payload["experiment"],
        "status": payload["status"],
    }
    if payload["status"] == "error":
        entry["error"] = dict(payload["error"])
    else:
        entry["file"] = path.name
        entry["elapsed_seconds"] = payload.get("elapsed_seconds", 0.0)
    return entry


def run_suite(
    output_dir: PathLike,
    experiments: Optional[Iterable[str]] = None,
    *,
    jobs: Optional[int] = None,
    scale: str = "quick",
    use_cache: bool = True,
    force: bool = False,
    timeout: Optional[float] = None,
) -> Dict[str, Path]:
    """Run each named experiment and persist its result.

    Parameters
    ----------
    output_dir:
        Results directory; one ``<name>.json`` per artifact plus the
        incrementally-flushed ``summary.json`` index.
    experiments:
        Artifact names to run (default: every registered artifact); a
        repeated name runs once.  Unknown names raise ``KeyError``.
    jobs:
        Worker-process count (default ``os.cpu_count()``); ``jobs=1``
        runs everything inline.
    scale:
        ``"quick"`` (the registry's laptop-scale kwargs) or ``"full"``
        (no kwargs: each harness's own ``run()`` defaults, the call
        ``repro <name>`` makes; shorter than the paper's runs).
    use_cache / force:
        With caching on (the default), artifacts whose content hash
        already matches a result file in ``output_dir`` are skipped and
        reported as ``"cached"``.  ``force=True`` re-runs them and
        refreshes their cache entries; ``use_cache=False`` bypasses the
        cache entirely — results are neither read from nor written to
        it, so later cached runs re-execute them.  Cache files that
        fail validation are quarantined to ``*.corrupt`` sidecars and
        their experiments re-run.
    timeout:
        Per-experiment wall-clock deadline in seconds, inline or pooled (see
        :func:`~repro.core.executor.map_tasks`); an experiment that
        outlives it records a ``TaskDeadlineExceeded`` error entry.

    Returns a mapping of experiment name -> written JSON path for every
    artifact that succeeded (fresh or cached).  Failures never abort
    the suite; they appear as ``"error"`` entries in ``summary.json``.
    """
    specs = registry.discover()
    available = sorted(specs)
    names = list(dict.fromkeys(experiments)) if experiments is not None else available
    unknown = [n for n in names if n not in specs]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}; have {available}")

    out_root = Path(output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    log = get_logger()
    log.info(
        "suite.start", experiments=len(names), scale=scale, out=str(out_root)
    )
    # Merge with any existing index so a subset run (--only fig3) never
    # erases the record of previously completed artifacts.
    index = SummaryIndex.load(out_root)
    for name in names:
        if name not in index.order:
            index.order.append(name)
    index.flush()
    written: Dict[str, Path] = {}

    def finish(name: str, payload: Dict[str, Any], key: Optional[str]) -> None:
        payload.setdefault("experiment", name)
        path = out_root / f"{name}.json"
        if payload["status"] == "ok":
            if key is not None:
                payload["cache_key"] = key
            atomic_write_json(path, payload)
            written[name] = path
        else:
            _invalidate_stale_result(path)
        index.record(_summary_entry(payload, path))
        log.info(
            "suite.experiment",
            experiment=name,
            status=payload["status"],
            elapsed=payload.get("elapsed_seconds", 0.0),
        )

    # Cache hits are recorded now; everything else runs.
    pooled: List[tuple] = []
    for name in names:
        spec = specs[name]
        kwargs = spec.kwargs(scale)
        key = _cache_key(name, spec.module, kwargs)
        path = out_root / f"{name}.json"
        cached = _cached_payload(path, key) if use_cache and not force else None
        if cached is not None:
            written[name] = path
            entry = _summary_entry(cached, path)
            entry["status"] = "cached"
            index.record(entry)
            log.debug("suite.experiment", experiment=name, status="cached")
            continue
        pooled.append((name, spec.module, kwargs, key if use_cache else None))

    tasks = [
        (name, (name, module, kwargs))
        for name, module, kwargs, _key in pooled
    ]
    keys = {name: key for name, _module, _kwargs, key in pooled}

    try:
        for name, payload in map_tasks(
            _execute_spec, tasks, jobs=jobs, timeout=timeout
        ):
            finish(name, payload, keys[name])
    except KeyboardInterrupt:
        # map_tasks tore the pool down on the way out; the index
        # already records everything that completed.
        log.warning(
            "suite.interrupted", completed=len(written), total=len(names)
        )
        index.flush()
        raise

    return written


def load_summary(output_dir: PathLike) -> List[Dict[str, Any]]:
    """Read a results directory's ``summary.json`` index."""
    return json.loads((Path(output_dir) / SummaryIndex.FILENAME).read_text())
