"""Determinism audit (campaign prerequisite).

Campaign trials fan out over worker processes, so every stochastic
component must derive all randomness from an explicit seed — never
from module-level RNG state or from salted ``hash()`` values that
differ per interpreter.  Two layers of regression net:

* source audit — no module-level RNG seeding / global library RNG
  namespaces (``np.random.*``-style) / ``hash()``-derived seeds
  anywhere under ``src/repro``;
* behavioural — identical traces across different ``PYTHONHASHSEED``
  interpreters, and bit-identical same-seed trials for both a cheap
  and a full-simulation trial kind.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns.runners import run_trial
from repro.campaigns.scenario import Scenario
from repro.workloads.synthetic import generate_trace

pytestmark = pytest.mark.smoke

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Patterns that indicate process-dependent randomness.
_FORBIDDEN = [
    re.compile(r"\brandom\.seed\("),          # module-level stdlib RNG
    re.compile(r"\b\w+\.random\.\w+\("),       # any global <lib>.random.* state
    re.compile(r"Random\([^)]*\bhash\("),     # salted str hash as a seed
]


def test_source_audit_no_module_level_or_salted_rng():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for pattern in _FORBIDDEN:
                if pattern.search(line):
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert not offenders, (
        "process-dependent randomness found (seed explicitly instead):\n"
        + "\n".join(offenders)
    )


def _trace_digest_subprocess(hashseed: str) -> str:
    """Checksum a synthetic trace in a fresh interpreter."""
    code = (
        "import hashlib\n"
        "from repro.workloads.synthetic import generate_trace\n"
        "records = generate_trace('433.milc', 500, seed=3)\n"
        "blob = ','.join(f'{r.gap_insts}:{r.phys_addr}:{r.is_write}'"
        " for r in records)\n"
        "print(hashlib.sha256(blob.encode()).hexdigest())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = str(SRC_ROOT.parent) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_traces_identical_across_hash_seeds():
    # hash('433.milc') differs between these two interpreters; the
    # trace must not (regression for the crc32 seed derivation).
    assert _trace_digest_subprocess("0") == _trace_digest_subprocess("1")


def test_traces_identical_in_process_for_same_seed():
    first = generate_trace("470.lbm", 300, seed=11)
    second = generate_trace("470.lbm", 300, seed=11)
    assert first == second
    assert first != generate_trace("470.lbm", 300, seed=12)


def _digest(metrics: dict) -> str:
    blob = ",".join(f"{k}={metrics[k]!r}" for k in sorted(metrics))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_same_seed_perf_trials_are_bit_identical():
    scenario = Scenario(
        attack="perf", mitigation="tprac", workload="453.povray",
        nbo=1024, params={"requests_per_core": 300, "cores": 2},
    )
    assert _digest(run_trial(scenario, 5)) == _digest(run_trial(scenario, 5))


def test_same_seed_covert_trials_are_bit_identical():
    scenario = Scenario(
        attack="covert_activity", mitigation="abo_only",
        nbo=64, params={"symbols": 4},
    )
    assert _digest(run_trial(scenario, 9)) == _digest(run_trial(scenario, 9))


# ----------------------------------------------------------------------
# Kernel determinism: the fast-path event loop must fire the same
# events in the same order on every same-seed run, and the experiment
# harnesses built on it must reproduce their outputs exactly.
# ----------------------------------------------------------------------
def _traced_system_run(cores=2, requests=250):
    """Run a small perf system recording (time, label) per fired event."""
    from repro.experiments.common import DesignPoint, build_system, homogeneous_traces

    traces = homogeneous_traces(
        "433.milc", cores=cores, num_accesses=requests, seed=7
    )
    system = build_system(DesignPoint(design="tprac", nrh=1024), traces)
    engine = system.engine
    original_schedule = engine.schedule
    trace = []

    def tracing_schedule(time, callback, priority=0, label=""):
        def wrapped():
            trace.append((engine.now, label))
            callback()

        return original_schedule(time, wrapped, priority, label)

    engine.schedule = tracing_schedule
    result = system.run()
    return trace, result


@pytest.mark.slow
def test_same_seed_runs_fire_identical_event_sequences():
    trace_a, result_a = _traced_system_run()
    trace_b, result_b = _traced_system_run()
    assert trace_a == trace_b
    assert len(trace_a) > 1000
    assert result_a.ipcs == result_b.ipcs
    assert result_a.elapsed_ns == result_b.elapsed_ns


@pytest.mark.slow
def test_fig10_quick_outputs_are_bit_identical_across_runs():
    from repro.experiments import fig10_performance

    kwargs = dict(workloads=("433.milc",), requests_per_core=300)
    first = fig10_performance.run(**kwargs)
    second = fig10_performance.run(**kwargs)
    assert first.matrix == second.matrix


@pytest.mark.slow
def test_fig3_quick_outputs_are_bit_identical_across_runs():
    from repro.experiments import fig3_latency

    first = fig3_latency.run(nbo=256)
    second = fig3_latency.run(nbo=256)
    assert first.format_table() == second.format_table()
    for label, timeline in first.timelines.items():
        other = second.timelines[label]
        assert timeline.times == other.times
        assert timeline.latencies == other.latencies


def test_campaign_smoke_scenario_hashes_are_pinned():
    # Content-hash IDs identify persisted campaign results; they must
    # not move when the kernel internals change.  Golden values were
    # captured on the pre-fast-path kernel.
    from repro.campaigns import builtin_scenarios

    assert [s.scenario_id for s in builtin_scenarios("smoke")] == [
        "b96dde42fa71",
        "9b2e4950526c",
        "2e4dd60e9ecd",
        "69a7b36da3d6",
        "bb8aca9c1b83",
        "c04331539422",
        "cf86827ccb59",
        "da6534cb71de",
        "f6873422c3e0",
        "1963edc70254",
        "5ce2b861a76a",
        "a0c48b3d162d",
    ]
