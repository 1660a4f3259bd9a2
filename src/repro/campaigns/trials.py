"""The Monte Carlo campaign engine: batched seeded trials per scenario.

``run_campaign`` executes N seeded trials for every scenario of a grid
on the shared pool loop (:func:`repro.core.executor.map_tasks`) with
per-trial fault isolation: a trial that raises, outlives ``timeout``
or loses its worker process becomes a structured error entry inside
its scenario's result, and every other trial — including the rest of
that same scenario — still completes.  Nothing is retried (trials are
seeded and deterministic); the scenario ends ``partial`` or ``error``
and a ``resume=True`` re-run runs it again.

Results are **streamed** and **resumable**:

* each scenario owns one ``scenario-<id>.json`` document, atomically
  rewritten as its trials land (:func:`repro.analysis.storage.
  atomic_write_json`), carrying the spec, per-trial records, and
  streaming aggregates (Welford mean/variance + bootstrap CIs from
  :mod:`repro.analysis.stats_utils`);
* a ``campaign.json`` index (:class:`~repro.analysis.storage.
  SummaryIndex`) lists the scenarios in grid order and is flushed
  after every scenario completion;
* a re-run with ``resume=True`` skips any scenario whose persisted
  document matches its content-hash cache key (same spec, base seed,
  package version) and already covers the requested trial count.

Trial ``t`` of every scenario runs with seed ``base_seed + t``, so
scenarios are seed-paired (differences between grid points are not
noise-confounded) and any trial can be reproduced standalone via
:func:`repro.campaigns.runners.run_trial`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro import __version__
from repro.analysis.stats_utils import Welford, bootstrap_ci
from repro.analysis.storage import (
    CorruptResultError,
    PathLike,
    SummaryIndex,
    atomic_write_json,
    attach_checksum,
    content_key,
    load_checked_json,
    quarantine_corrupt,
)
from repro.core.executor import error_entry, map_tasks
from repro.campaigns import runners
from repro.campaigns.runners import run_trial
from repro.campaigns.scenario import Scenario
from repro.obs.heartbeat import HEARTBEAT_FILENAME, HeartbeatWriter
from repro.obs.log import get_logger

INDEX_FILENAME = "campaign.json"

#: campaign subdirectory receiving per-trial telemetry exports
OBS_SUBDIR = "obs"

#: ``run_campaign(on_event=...)`` subscriber signature: the renderer
#: (or any watcher) receives the heartbeat's (event, fields) pairs.
EventHook = Callable[[str, Dict[str, Any]], None]


class CampaignIndex(SummaryIndex):
    """The campaign directory's index; same machinery, its own file so a
    campaign and an artifact suite can share one results directory."""

    FILENAME = INDEX_FILENAME


# ----------------------------------------------------------------------
# Worker (crosses the process-pool boundary; module-level & picklable)
# ----------------------------------------------------------------------
def _execute_trial(
    spec: Dict[str, Any], seed: int, obs_dir: Optional[str] = None
) -> Dict[str, Any]:
    """Pool entry point: one seeded trial, exceptions folded to payloads.

    ``obs_dir`` (set only for scenarios with telemetry axes on) points
    the trial kinds' telemetry export at the campaign's ``obs/``
    subdirectory; it is plumbed through a module global because the
    trial functions' signature — ``(scenario, seed) -> metrics`` — is
    the reproducibility contract and telemetry must stay out of it.
    """
    started = time.perf_counter()
    runners.telemetry_dir = obs_dir
    try:
        metrics = run_trial(Scenario.from_dict(spec), seed)
        return {
            "status": "ok",
            "seed": seed,
            # advisory wall-clock, never part of result identity
            "elapsed_seconds": round(time.perf_counter() - started, 3),  # repro-lint: allow(float-format-drift)
            "metrics": {k: float(v) for k, v in metrics.items()},
        }
    except Exception as exc:  # isolation boundary; Ctrl-C still propagates
        return {"status": "error", "seed": seed, "error": error_entry(exc)}
    finally:
        runners.telemetry_dir = None


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def aggregate_metrics(
    trials: Iterable[Dict[str, Any]], ci_seed: int = 0
) -> Dict[str, Dict[str, Any]]:
    """Per-metric streaming summary over the ok trials.

    Returns ``metric -> {n, mean, stdev, ci95, bootstrap_ci95}`` where
    ``ci95`` is the t-interval from the Welford accumulator and
    ``bootstrap_ci95`` the seeded percentile bootstrap.
    """
    accumulators: Dict[str, Welford] = {}
    series: Dict[str, List[float]] = {}
    for trial in trials:
        if trial.get("status") != "ok":
            continue
        for name, value in trial.get("metrics", {}).items():
            accumulators.setdefault(name, Welford()).push(value)
            series.setdefault(name, []).append(value)
    out: Dict[str, Dict[str, Any]] = {}
    for name, acc in sorted(accumulators.items()):
        summary = acc.summary()
        out[name] = {
            "n": acc.n,
            "mean": acc.mean,
            "stdev": acc.stdev,
            "ci95": list(summary.ci95),
            "bootstrap_ci95": list(bootstrap_ci(series[name], seed=ci_seed)),
        }
    return out


# ----------------------------------------------------------------------
# Campaign state
# ----------------------------------------------------------------------
@dataclass
class ScenarioRun:
    """Accumulating state + persistence for one scenario's trials."""

    scenario: Scenario
    path: Path
    cache_key: str
    base_seed: int
    trials_requested: int
    trials: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ok_count(self) -> int:
        return sum(1 for t in self.trials.values() if t["status"] == "ok")

    @property
    def error_count(self) -> int:
        return sum(1 for t in self.trials.values() if t["status"] == "error")

    @property
    def complete(self) -> bool:
        return len(self.trials) >= self.trials_requested

    @property
    def status(self) -> str:
        """ok / partial / error once complete (all, some, no trials ok)."""
        if self.error_count == 0:
            return "ok"
        return "partial" if self.ok_count else "error"

    def payload(self) -> Dict[str, Any]:
        """The scenario's persistable result document (JSON-able)."""
        scenario = self.scenario
        doc: Dict[str, Any] = {
            "scenario_id": scenario.scenario_id,
            "label": scenario.label,
            "status": self.status,
            "spec": scenario.to_dict(),
            "base_seed": self.base_seed,
            "trials_requested": self.trials_requested,
            "trials_completed": len(self.trials),
            "trials_ok": self.ok_count,
            "trials_error": self.error_count,
            # Aggregate in trial order, not completion order, so pooled
            # and inline runs produce bit-identical statistics.
            "trials": [self.trials[t] for t in sorted(self.trials)],
            "metrics": aggregate_metrics(
                (self.trials[t] for t in sorted(self.trials)),
                ci_seed=self.base_seed,
            ),
        }
        if self.complete:
            doc["cache_key"] = self.cache_key
        return doc

    def flush(self) -> None:
        """Atomically rewrite the scenario document with current state.

        The persisted document carries a content-checksum footer so a
        resume can tell post-write damage from a genuine result."""
        atomic_write_json(self.path, attach_checksum(self.payload()))


@dataclass
class CampaignResult:
    """What ``run_campaign`` hands back to callers (CLI, tests)."""

    output_dir: Path
    statuses: Dict[str, str]            # scenario_id -> ok/partial/error/cached
    labels: Dict[str, str]              # scenario_id -> label
    paths: Dict[str, Path]              # scenario_id -> result document
    trials_requested: int

    @property
    def scenarios_ok(self) -> int:
        return sum(1 for s in self.statuses.values() if s in ("ok", "cached"))

    @property
    def had_errors(self) -> bool:
        return any(s in ("partial", "error") for s in self.statuses.values())


# ----------------------------------------------------------------------
def _scenario_cache_key(scenario: Scenario, base_seed: int) -> str:
    return content_key(
        {
            "scenario": scenario.to_dict(),
            "base_seed": base_seed,
            "version": __version__,
        }
    )


def _resumable(path: Path, key: str, trials: int) -> bool:
    """Whether a persisted scenario document satisfies this request.

    Raises :class:`~repro.analysis.storage.CorruptResultError` for an
    unparseable or checksum-mismatched document — the caller
    quarantines the file and re-runs the scenario rather than trusting
    (or silently overwriting) damaged results.
    """
    if not path.exists():
        return False
    doc = load_checked_json(path)
    return (
        isinstance(doc, dict)
        and doc.get("cache_key") == key
        and doc.get("status") == "ok"
        and doc.get("trials_completed", 0) >= trials
    )


def run_campaign(
    scenarios: Sequence[Scenario],
    output_dir: PathLike,
    *,
    trials: int = 3,
    jobs: Optional[int] = None,
    seed: int = 0,
    resume: bool = False,
    timeout: Optional[float] = None,
    on_event: Optional[EventHook] = None,
    heartbeat: bool = True,
) -> CampaignResult:
    """Run ``trials`` seeded Monte Carlo trials for every scenario.

    Parameters
    ----------
    scenarios:
        Concrete scenario instances (usually from
        :func:`repro.campaigns.grid.expand_grid`).  Duplicate IDs raise.
    output_dir:
        Results directory: one ``scenario-<id>.json`` per scenario plus
        the ``campaign.json`` index.
    trials / seed:
        Trial ``t`` runs with seed ``seed + t`` in every scenario.
    jobs:
        Pool width (default ``os.cpu_count()``); ``jobs=1`` runs inline.
    resume:
        Skip scenarios whose persisted document matches the cache key
        and trial count; they are reported as ``"cached"``.  Documents
        that fail validation (truncation, bad JSON, checksum mismatch)
        are moved to ``*.corrupt`` sidecars and their scenarios re-run.
    timeout:
        Per-trial wall-clock deadline in seconds, inline or pooled (see
        :func:`~repro.core.executor.map_tasks`); a trial that outlives
        it records a ``TaskDeadlineExceeded`` error entry.
    on_event:
        Optional subscriber called with every lifecycle event the
        heartbeat records — ``(event, fields)`` pairs in completion
        order (the ``--progress`` renderer plugs in here).
    heartbeat:
        Append lifecycle events to ``heartbeat.jsonl`` in the campaign
        directory (append-only across attempts; see
        :mod:`repro.obs.heartbeat`).

    A ``KeyboardInterrupt`` mid-run aborts cleanly: the pool is torn
    down, an ``campaign.interrupted`` event is recorded, the index is
    flushed with everything that completed, and the interrupt
    re-raised (per-trial flushes mean every landed trial is already on
    disk).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    out_root = Path(output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    # Merge with any existing index so a subset/resumed run never erases
    # the record of previously completed scenarios.
    index = CampaignIndex.load(out_root)
    log = get_logger()

    hb_writer = (
        HeartbeatWriter(out_root / HEARTBEAT_FILENAME) if heartbeat else None
    )

    def emit(event: str, **fields: Any) -> None:
        if hb_writer is not None:
            hb_writer.emit(event, **fields)
        if on_event is not None:
            on_event(event, fields)

    runs: Dict[str, ScenarioRun] = {}
    statuses: Dict[str, str] = {}
    labels: Dict[str, str] = {}
    paths: Dict[str, Path] = {}
    try:
        emit(
            "campaign.start",
            scenarios=len(scenarios),
            trials=trials,
            resumed=bool(resume),
        )
        for scenario in scenarios:
            sid = scenario.scenario_id
            if sid in runs or sid in statuses:
                raise ValueError(f"duplicate scenario id {sid} ({scenario.label})")
            # Grid order, not completion order, fixes the index's rows.
            if sid not in index.order:
                index.order.append(sid)
            labels[sid] = scenario.label
            path = out_root / f"scenario-{sid}.json"
            paths[sid] = path
            key = _scenario_cache_key(scenario, seed)
            cached = False
            if resume:
                try:
                    cached = _resumable(path, key, trials)
                except CorruptResultError as exc:
                    sidecar = quarantine_corrupt(path)
                    emit(
                        "scenario.corrupt",
                        scenario_id=sid,
                        label=scenario.label,
                        reason=exc.reason,
                        sidecar=sidecar.name,
                    )
                    log.warning(
                        "campaign.corrupt_result",
                        scenario=scenario.label,
                        reason=exc.reason,
                        sidecar=sidecar.name,
                    )
            if cached:
                statuses[sid] = "cached"
                emit(
                    "scenario.cached",
                    scenario_id=sid,
                    label=scenario.label,
                    trials=trials,
                )
                index.record(
                    {
                        "experiment": sid,
                        "label": scenario.label,
                        "status": "cached",
                        "file": path.name,
                    },
                    flush=False,
                )
                continue
            runs[sid] = ScenarioRun(
                scenario=scenario,
                path=path,
                cache_key=key,
                base_seed=seed,
                trials_requested=trials,
            )
        index.flush()

        # Per-trial telemetry lands under obs/ for scenarios that carry
        # the trace/metrics axes; created up front so pool workers only
        # ever write into an existing directory.
        obs_dir: Optional[str] = None
        if any(r.scenario.trace or r.scenario.metrics for r in runs.values()):
            obs_path = out_root / OBS_SUBDIR
            obs_path.mkdir(parents=True, exist_ok=True)
            obs_dir = str(obs_path)

        for sid, run in runs.items():
            emit("scenario.start", scenario_id=sid, label=run.scenario.label)

        tasks = [
            (
                (sid, t),
                (
                    run.scenario.to_dict(),
                    seed + t,
                    obs_dir
                    if (run.scenario.trace or run.scenario.metrics)
                    else None,
                ),
            )
            for sid, run in runs.items()
            for t in range(trials)
        ]
        for (sid, t), payload in map_tasks(
            _execute_trial, tasks, jobs=jobs, timeout=timeout
        ):
            run = runs[sid]
            payload.setdefault("seed", seed + t)
            run.trials[t] = payload
            run.flush()  # atomic: a kill mid-campaign leaves consistent docs
            emit(
                "trial.finish",
                scenario_id=sid,
                label=run.scenario.label,
                trial=t,
                seed=payload.get("seed", seed + t),
                status=payload.get("status", "?"),
            )
            log.debug(
                "campaign.trial",
                scenario=run.scenario.label,
                trial=t,
                status=payload.get("status", "?"),
                elapsed=payload.get("elapsed_seconds", 0.0),
            )
            if payload.get("status") == "error":
                error = payload.get("error", {})
                emit(
                    "trial.fault",
                    scenario_id=sid,
                    seed=payload.get("seed", seed + t),
                    error_type=error.get("type", "?"),
                    error=error.get("message", ""),
                )
            if run.complete:
                statuses[sid] = run.status
                emit(
                    "scenario.finish",
                    scenario_id=sid,
                    label=run.scenario.label,
                    status=run.status,
                )
                log.info(
                    "campaign.scenario",
                    scenario=run.scenario.label,
                    status=run.status,
                    trials_ok=run.ok_count,
                    trials_error=run.error_count,
                )
                entry: Dict[str, Any] = {
                    "experiment": sid,
                    "label": run.scenario.label,
                    "status": run.status,
                    "file": run.path.name,
                    "trials_ok": run.ok_count,
                    "trials_error": run.error_count,
                }
                if run.error_count:
                    first_error = next(
                        run.trials[t].get("error", {})
                        for t in sorted(run.trials)
                        if run.trials[t]["status"] == "error"
                    )
                    entry["error"] = {
                        "type": first_error.get("type", "?"),
                        "message": first_error.get("message", ""),
                    }
                index.record(entry)

        emit(
            "campaign.finish",
            scenarios=len(scenarios),
            cached=sum(1 for s in statuses.values() if s == "cached"),
            errors=sum(
                1 for s in statuses.values() if s in ("partial", "error")
            ),
        )
    except KeyboardInterrupt:
        # map_tasks already tore the pool down on the way out; every
        # landed trial is flushed.  Record the abort and persist the
        # index of what completed before re-raising.
        emit(
            "campaign.interrupted",
            completed=len(statuses),
            total=len(scenarios),
        )
        index.flush()
        raise
    finally:
        if hb_writer is not None:
            hb_writer.close()

    return CampaignResult(
        output_dir=out_root,
        statuses=statuses,
        labels=labels,
        paths=paths,
        trials_requested=trials,
    )


def load_scenario_result(path: PathLike) -> Dict[str, Any]:
    """Read one persisted scenario document back."""
    return json.loads(Path(path).read_text())


def load_campaign_index(output_dir: PathLike) -> List[Dict[str, Any]]:
    """Read a campaign directory's ``campaign.json`` index."""
    return json.loads((Path(output_dir) / INDEX_FILENAME).read_text())
