"""Timed and traced runs of one workload, and the numbers they report.

The load is a closed loop: one process runs one op at a time, back to
back, over the workload's pinned ops in a fixed order, and rebuilds
every op's cold-device object (untimed) before each new pass.  A timed
run keeps going until ``seconds`` have passed and at least one full
pass is done; ``wall_s`` is the sum over ops of each op's median host
time, so it estimates one pass of the pinned work.  Every timed sample
(op or set-up) is scaled to a reference host speed by the calibration
loop run around it (:mod:`perfbench.calibration`); raw times are kept
beside the scaled ones.

Every op's simulated outputs are checked: the invariants in
:mod:`perfbench.workloads` on any seed, and the digests committed in
``references.json`` on the seeds listed there.  An op that raises or
fails a check counts as failed.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench.calibration import REFERENCE_S, calibrate, scaled
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Op, events_fired

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
REFERENCES = BENCH_DIR / "references.json"
RESULTS_DIR = BENCH_DIR / "results"

#: fresh interpreters timed per run for ``setup_s``
SETUP_PROBES = 5

clock = time.perf_counter

#: the end-to-end metrics of a timed run, with their units
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: the per-layer metrics of a traced run, with their units
LAYER_UNITS = {
    "dram.self_s": "s",
    "dram.block_s": "s",
    "dram.blocks": "count",
    "dram.block_open_ratio": "ratio",
    "dram.banks_iterated": "count",
    "dram.banks_precharged": "count",
    "dram.refreshes": "count",
    "dram.activations": "count",
    "dram.idle_window_ratio": "ratio",
    "dram.idle_windows": "count",
    "dram.blocked_frac": "ratio",
    "mitigations.self_s": "s",
    "mitigations.rfms_tb": "count",
    "mitigations.rfms_abo": "count",
    "mitigations.pop_hit_ratio": "ratio",
    "mitigations.queues_popped": "count",
    "mitigations.victims": "count",
    "prac.self_s": "s",
    "prac.alerts": "count",
    "controller.self_s": "s",
    "controller.scheduler_s": "s",
    "controller.requests": "count",
    "controller.wakes": "count",
    "controller.wakes_per_request": "ratio",
    "controller.row_hit_rate": "ratio",
    "controller.mean_latency_ns": "ns",
    "core.self_s": "s",
    "core.events": "count",
    "core.fired_per_scheduled": "ratio",
    "cpu.self_s": "s",
    "cpu.ipc": "insts/cycle",
    "attacks.self_s": "s",
    "crypto.self_s": "s",
    "workloads.trace_gen_s": "s",
    "analysis.tb_window_s": "s",
    "events.controller": "count",
    "events.dram": "count",
    "events.mitigations": "count",
    "events.cpu": "count",
    "events.attacks": "count",
    "trace.overhead": "ratio",
}


class ControllerLog:
    """Collects the memory controllers each op builds, for its outputs."""

    def __init__(self) -> None:
        self.target: Optional[List[Any]] = None

    @contextmanager
    def installed(self) -> Iterator["ControllerLog"]:
        from repro.controller.controller import MemoryController

        original = MemoryController.__dict__["__init__"]
        log = self

        @functools.wraps(original)
        def __init__(controller: Any, *args: Any, **kwargs: Any) -> None:
            original(controller, *args, **kwargs)
            if log.target is not None:
                log.target.append(controller)

        MemoryController.__init__ = __init__  # type: ignore[method-assign]
        try:
            yield self
        finally:
            MemoryController.__init__ = original  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Set-up and one op
# ----------------------------------------------------------------------
def setup(name: str, seed: int, log: ControllerLog) -> Tuple[List[Op], List[Tuple[Any, List[Any]]]]:
    """Generate the inputs, pin the ops and build the first pass."""
    workload = WORKLOADS[name]
    ops = workload.ops(workload.generate(seed))
    return ops, build_pass(ops, log)


def build_pass(ops: List[Op], log: ControllerLog) -> List[Tuple[Any, List[Any]]]:
    """A fresh cold-device object per op, with the controllers it built."""
    built = []
    for op in ops:
        log.target = controllers = []
        built.append((op.build(), controllers))
    log.target = None
    return built


def digest(outputs: Dict[str, Any]) -> str:
    """A short hash of an op's simulated outputs."""
    text = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_op(
    op: Op,
    obj: Any,
    controllers: List[Any],
    log: ControllerLog,
    expected: Optional[Dict[str, str]],
    before: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Time one op between two calibrations and check its outputs.

    ``before`` is a calibration taken just before (the previous op's
    closing one); without it the op takes its own.
    """
    fn, args = op.call(obj)
    if before is None:
        before = calibrate()
    gc.collect()
    log.target = controllers
    error = None
    start = clock()
    try:
        if tracer is None:
            result = fn(*args)
        else:
            with tracer.root(op.name, tracer.key(fn, "op")):
                result = fn(*args)
    except Exception:  # an op that raises is a failed op, not a crash
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    raw = clock() - start
    log.target = None
    after = calibrate()
    record: Dict[str, Any] = {
        "op": op.name,
        "raw_seconds": raw,
        "seconds": scaled(raw, before, after),
        "cal_before": before,
        "cal_after": after,
    }
    if error is not None:
        problems = [error]
    else:
        outputs = op.outputs(obj, result, controllers)
        record["outputs"] = outputs
        record["digest"] = digest(outputs)
        problems = op.violations(outputs)
        if expected is not None and expected.get(op.name) != record["digest"]:
            problems.append(
                f"digest {record['digest']} != reference {expected.get(op.name)}"
            )
    record["problems"] = problems
    record["ok"] = not problems
    return record


def expected_digests(
    name: str, seed: int, references: Optional[Dict[str, Any]]
) -> Optional[Dict[str, str]]:
    """The committed digests for this workload and seed, if any."""
    if references is None:
        references = json.loads(REFERENCES.read_text())
    return references.get(name, {}).get(str(seed))


# ----------------------------------------------------------------------
# Timed and traced runs
# ----------------------------------------------------------------------
def measure(
    name: str, seed: int, seconds: float, references: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Run the workload's ops back to back for ``seconds``; tracing off."""
    expected = expected_digests(name, seed, references)
    log = ControllerLog()
    with log.installed():
        ops, built = setup(name, seed, log)
        records: List[Dict[str, Any]] = []
        deadline = clock() + seconds
        before = None
        # At least one full pass, then whole ops until the deadline.
        while len(records) < len(ops) or clock() < deadline:
            index = len(records) % len(ops)
            if index == 0 and records:
                built = build_pass(ops, log)
            obj, controllers = built[index]
            records.append(run_op(ops[index], obj, controllers, log, expected, before))
            before = records[-1]["cal_after"]
    ok = [r for r in records if r["ok"]]
    return {
        "workload": name,
        "seed": seed,
        "ops": [op.name for op in ops],
        "records": records,
        "passes": len(records) // len(ops),
        "wall_s": _pass_seconds(ok, "seconds"),
        "raw_wall_s": _pass_seconds(ok, "raw_seconds"),
        "speed": REFERENCE_S / statistics.median(
            c for r in records for c in (r["cal_before"], r["cal_after"])
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _pass_seconds(records: List[Dict[str, Any]], field: str) -> float:
    """Sum over ops of each op's median time: one pass of the pinned work."""
    samples: Dict[str, List[float]] = {}
    for record in records:
        samples.setdefault(record["op"], []).append(record[field])
    return sum(statistics.median(times) for times in samples.values())


def trace(
    name: str, seed: int, seconds: float, references: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One traced pass, then a timed run with tracing off as its reference."""
    expected = expected_digests(name, seed, references)
    tracer = Tracer()
    log = ControllerLog()
    with log.installed(), tracer.installed():
        with tracer.root("setup", ("bench", "setup", "setup")):
            ops, built = setup(name, seed, log)
        records = [
            run_op(op, obj, controllers, log, expected, tracer=tracer)
            for op, (obj, controllers) in zip(ops, built)
        ]
        controllers = [c for _obj, cs in built for c in cs]
    untraced = measure(name, seed, seconds, references)
    names = [op.name for op in ops]
    report = {
        "workload": name,
        "seed": seed,
        "ops": names,
        "records": records + untraced["records"],
        "traced_records": records,
        "passes": untraced["passes"],
        "traced_wall_s": sum(s["duration_s"] for s in tracer.spans if s["op"] in names),
        "untraced_wall_s": untraced["wall_s"],
        "raw_wall_s": untraced["raw_wall_s"],
        "speed": untraced["speed"],
        "self_by_layer": tracer.self_seconds(names),
        "tracer": tracer,
    }
    report["layers"] = layer_metrics(report, tracer, controllers)
    return report


def layer_metrics(
    report: Dict[str, Any], tracer: Tracer, controllers: List[Any]
) -> Dict[str, float]:
    """The per-layer metrics of a traced pass.

    Span times are scaled to the reference host speed by the traced
    ops' calibrations, like the timed metrics; counts are exact.
    """
    ops = report["ops"]
    speed = REFERENCE_S / statistics.median(
        c for r in report["traced_records"] for c in (r["cal_before"], r["cal_after"])
    )
    own = {layer: s * speed for layer, s in report["self_by_layer"].items()}
    counts = tracer.counts

    def spans(match: Any) -> Tuple[int, float]:
        count, seconds = tracer.select(ops, match)
        return count, seconds * speed

    def setup_spans(name: str) -> float:
        return tracer.select(["setup"], lambda k: k[2] == name)[1] * speed

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sim = _controller_totals(controllers)
    blocks, block_s = spans(lambda k: k[2] == "Channel.block")
    wakes, _ = spans(lambda k: k[1] == "event" and k[2] == "MemoryController._wake")
    _, scheduler_s = spans(lambda k: k[1] == "scheduler")
    ipcs = [ipc for r in report["traced_records"] for ipc in r.get("outputs", {}).get("ipcs", [])]
    metrics = {
        "dram.self_s": own.get("dram", 0.0),
        "dram.block_s": block_s,
        "dram.blocks": blocks,
        "dram.block_open_ratio": ratio(
            counts["dram.banks_precharged"], counts["dram.banks_iterated"]
        ),
        "dram.banks_iterated": counts["dram.banks_iterated"],
        "dram.banks_precharged": counts["dram.banks_precharged"],
        "dram.refreshes": sim["refreshes"],
        "dram.activations": sim["activations"],
        "dram.idle_window_ratio": ratio(counts["dram.idle_windows"], blocks),
        "dram.idle_windows": counts["dram.idle_windows"],
        "dram.blocked_frac": ratio(sim["blocked_ns"], sim["sim_ns"]),
        "mitigations.self_s": own.get("mitigations", 0.0),
        "mitigations.rfms_tb": counts["mitigations.rfms_tb"],
        "mitigations.rfms_abo": counts["mitigations.rfms_abo"],
        "mitigations.pop_hit_ratio": ratio(
            counts["mitigations.victims"], counts["mitigations.queues_popped"]
        ),
        "mitigations.queues_popped": counts["mitigations.queues_popped"],
        "mitigations.victims": counts["mitigations.victims"],
        "prac.self_s": own.get("prac", 0.0),
        "prac.alerts": sim["alerts"],
        "controller.self_s": own.get("controller", 0.0),
        "controller.scheduler_s": scheduler_s,
        "controller.requests": sim["requests"],
        "controller.wakes": wakes,
        "controller.wakes_per_request": ratio(wakes, sim["requests"]),
        "controller.row_hit_rate": ratio(sim["row_hits"], sim["requests"]),
        "controller.mean_latency_ns": ratio(sim["latency_ns"], sim["requests"]),
        "core.self_s": own.get("core", 0.0),
        "core.events": sim["events"],
        "core.fired_per_scheduled": ratio(sim["events"], counts["core.scheduled"]),
        "cpu.self_s": own.get("cpu", 0.0),
        "cpu.ipc": statistics.mean(ipcs) if ipcs else 0.0,
        "attacks.self_s": own.get("attacks", 0.0),
        "crypto.self_s": own.get("crypto", 0.0),
        "workloads.trace_gen_s": setup_spans("homogeneous_traces"),
        "analysis.tb_window_s": setup_spans("required_tb_window"),
    }
    for layer in ("controller", "dram", "mitigations", "cpu", "attacks"):
        metrics[f"events.{layer}"] = spans(
            lambda k, layer=layer: k[1] == "event" and k[0] == layer
        )[0]
    # Both sides at reference speed, like wall_s itself.
    traced = sum(r["seconds"] for r in report["traced_records"])
    metrics["trace.overhead"] = ratio(traced, report["untraced_wall_s"])
    return metrics


def _controller_totals(controllers: List[Any]) -> Dict[str, float]:
    """Simulated counts summed over the controllers of a pass."""
    totals = dict.fromkeys(
        ("refreshes", "activations", "requests", "row_hits", "latency_ns",
         "alerts", "blocked_ns", "sim_ns"), 0,
    )
    for c in controllers:
        timing = c.config.timing
        totals["refreshes"] += c.refresh.refresh_count
        totals["activations"] += sum(bank.stats.activations for bank in c.channel)
        totals["requests"] += c.stats.requests_served
        totals["row_hits"] += c.stats.row_hits
        totals["latency_ns"] += c.stats.total_latency
        totals["alerts"] += c.abo.alert_count
        totals["blocked_ns"] += (
            c.refresh.refresh_count * timing.tRFC + c.channel.rfm_count * timing.tRFMab
        )
        totals["sim_ns"] += c.engine.now
    totals["events"] = events_fired(controllers)
    return totals


# ----------------------------------------------------------------------
# Set-up time and provenance
# ----------------------------------------------------------------------
def probe_setup(name: str, seed: int, count: int = SETUP_PROBES) -> List[Tuple[float, float]]:
    """(scaled, raw) seconds from starting a fresh interpreter to its
    first op, ``count`` times."""
    times = []
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", name, "--seed", str(seed), "--setup-probe",
    ]
    before = calibrate()
    for _ in range(count):
        start = clock()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            try:
                ready = child.stdout.readline() if child.stdout else ""
                elapsed = clock() - start
                if child.wait(timeout=60) != 0 or ready.strip() != "ready":
                    raise RuntimeError(f"set-up probe failed: {ready!r}")
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        after = calibrate()
        times.append((scaled(elapsed, before, after), elapsed))
        before = after
    return times


def setup_probe(name: str, seed: int) -> None:
    """The child side of :func:`probe_setup`: set up, then say so."""
    log = ControllerLog()
    with log.installed():
        setup(name, seed, log)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def provenance(seed: int, runs: int) -> Dict[str, Any]:
    """What produced a result: code, interpreter, host, seed, run count."""
    return {
        "git": _git_rev(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "runs": runs,
    }


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return rev + ("+dirty" if dirty else "")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# ----------------------------------------------------------------------
# The whole run, as printed
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One benchmark run; prints the report and returns the result line."""
    print(f"perfbench {name}: seed {seed}, {seconds:g} s, trace {int(traced)}")
    if traced:
        report = trace(name, seed, seconds)
        metrics = {k: (report["layers"][k], unit) for k, unit in LAYER_UNITS.items()}
    else:
        setup_times = probe_setup(name, seed)
        report = measure(name, seed, seconds)
        report["setup_samples"] = setup_times
        report["raw_setup_s"] = statistics.median(raw for _s, raw in setup_times)
        values = {
            "wall_s": report["wall_s"],
            "setup_s": statistics.median(s for s, _raw in setup_times),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    records = report["records"]
    failed = sum(not r["ok"] for r in records)
    report["provenance"] = provenance(seed, report["passes"])
    _print_report(name, report, metrics, failed)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _write_results(name, seed, traced, report, result)
    return result


def _print_report(
    name: str, report: Dict[str, Any], metrics: Dict[str, Tuple[float, str]], failed: int
) -> None:
    prov = report["provenance"]
    print("provenance: " + " | ".join(f"{k} {v}" for k, v in prov.items()))
    traced = report.get("traced_records", [])
    if traced:
        _print_ops("traced", report["ops"], traced)
    _print_ops("timed", report["ops"], report["records"][len(traced):])
    if "layers" in report:
        _print_layers(report)
    attempted = len(report["records"])
    raw = ", ".join(
        f"{label} {report[key]:.4f} s" for key, label in
        (("raw_wall_s", "wall"), ("raw_setup_s", "set-up")) if key in report
    )
    print(
        f"  host speed {report['speed']:.4g}x reference; times are scaled to "
        f"the reference speed (raw: {raw})"
    )
    for key, (value, unit) in metrics.items():
        print(f"  {key:<30} {value:.6g} {unit}")
    print(f"  {'failed_frac':<30} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    outputs = {r["op"]: r["outputs"] for r in report["records"] if r["ok"]}
    if len(outputs) == len(report["ops"]):
        print(
            "model vs paper (unvalidated: the repo holds no hardware "
            "reference, so these are context, not an error figure):"
        )
        for line in WORKLOADS[name].headline(outputs):
            print("  " + line)


def _print_ops(label: str, ops: List[str], records: List[Dict[str, Any]]) -> None:
    """One line per op: runs, median host time, output digest, check."""
    for op in ops:
        runs = [r for r in records if r["op"] == op]
        ok = [r["seconds"] for r in runs if r["ok"]]
        median = statistics.median(ok) if ok else float("nan")
        raw = statistics.median(r["raw_seconds"] for r in runs) if runs else float("nan")
        digests = ",".join(sorted({r.get("digest", "-") for r in runs}))
        problems = "; ".join(p for r in runs for p in r["problems"])
        print(
            f"  {label} op {op:<18} {len(runs)} runs  median {median:.4f} s "
            f"(raw {raw:.4f} s)  "
            f"digest {digests}  {'FAILED: ' + problems if problems else 'ok'}"
        )


def _print_layers(report: Dict[str, Any]) -> None:
    wall = report["traced_wall_s"]
    print(f"traced pass: raw wall {wall:.4f} s over {len(report['ops'])} ops")
    print("  raw self time by layer (share of traced wall):")
    for layer, seconds in sorted(report["self_by_layer"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<12} {seconds:9.4f} s  {100 * seconds / wall:5.1f}%")


def _write_results(
    name: str, seed: int, traced: bool, report: Dict[str, Any], result: Dict[str, Any]
) -> None:
    """Everything the run measured, written when it ends."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    data = {k: v for k, v in report.items() if k != "tracer"}
    data["result"] = result
    if "tracer" in report:
        data["trace"] = report["tracer"].dump()
    path = RESULTS_DIR / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(data, indent=1, default=str))
