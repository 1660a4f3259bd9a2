"""Telemetry wired through the real memory system.

The zero-overhead-off contract: with ``trace``/``metrics`` at their
defaults nothing is attached and simulation results are identical to a
telemetry-enabled run — turning observation on must never perturb what
is observed.
"""

import json

import pytest

from repro.config import SystemConfig
from repro.controller.memory_system import MemorySystem
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.cpu.system import System
from repro.dram.config import small_test_config
from repro.obs.export import export_system_telemetry
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import TRACE_SCHEMA, load_trace_jsonl
from repro.workloads.synthetic import homogeneous_traces

pytestmark = pytest.mark.smoke


def _run_system(system=None, requests=300, channels=1):
    # The workload must be identical across telemetry settings, so all
    # requests are enqueued up front (arrival pattern independent of
    # how many engine events each configuration fires per step).
    engine = Engine()
    config = small_test_config().with_organization(channels=channels)
    memory = MemorySystem(engine, config, system=system)
    for index in range(requests):
        addr = (index * 977) % (1 << 20)
        memory.enqueue(MemRequest(addr, is_write=(index % 8 == 7)))
    while not memory.idle():
        engine.step()
    return memory


def _result_fingerprint(memory):
    stats = memory.stats
    return (
        stats.requests_served,
        stats.total_latency,
        stats.row_hits,
        [c.refresh.refresh_count for c in memory.controllers],
        [c.channel.rfm_count for c in memory.controllers],
    )


def test_telemetry_off_attaches_nothing():
    memory = _run_system(system=None, requests=50)
    assert memory.recorder is None
    assert memory.sampler is None
    assert memory.metrics is NULL_REGISTRY
    for controller in memory.controllers:
        assert controller.recorder is None


def test_telemetry_does_not_perturb_simulation_results():
    baseline = _result_fingerprint(_run_system(system=None))
    traced = _result_fingerprint(
        _run_system(system=SystemConfig(trace=True, metrics=True))
    )
    assert traced == baseline


def test_trace_records_commands_and_lifecycle():
    memory = _run_system(system=SystemConfig(trace=True))
    recorder = memory.recorder
    assert recorder is not None and len(recorder) > 0
    counts = recorder.counts_by_kind()
    assert counts["ACT"] > 0 and counts["RD"] > 0 and counts["WR"] > 0
    # every ACT also logs the row's PRAC counter value
    assert counts["prac.counter"] == counts["ACT"]


def test_metrics_registry_collects_core_counters():
    # 300 requests drain in under one tREFI; use a longer workload so at
    # least one REFab lands inside the observed window.
    memory = _run_system(system=SystemConfig(metrics=True), requests=4000)
    assert memory.metrics.enabled
    snap = memory.metrics.snapshot()
    refabs = sum(c.refresh.refresh_count for c in memory.controllers)
    assert snap["counters"]["dram.refab"] == refabs > 0
    assert "abo.alerts" in snap["counters"]
    assert "rfm.abo" in snap["counters"]


def test_sampler_records_windowed_series():
    # long enough to cross at least one 10 us sampling interval
    memory = _run_system(system=SystemConfig(metrics=True), requests=4000)
    sampler = memory.sampler
    assert sampler is not None
    assert len(sampler.series["t"]) > 0
    payload = sampler.to_payload()
    assert payload["samples"] == len(sampler.series["t"])
    assert set(payload["series"]) == {
        "t", "queue_depth", "row_hit_rate", "bus_occupancy",
        "alerts_per_s", "events_per_wall_s",
    }


def test_sampler_sees_events_in_every_window_of_a_run():
    # System.run fires everything inside one engine.run(), and the
    # sampler reads events_fired from inside it: each window's count
    # must cover the events that fired in it, not read 0 until the run
    # returns.
    traces = homogeneous_traces("433.milc", cores=2, num_accesses=4000, seed=1)
    system = System(traces, system=SystemConfig(metrics=True))
    system.run()
    rates = system.memory.sampler.series["events_per_wall_s"]
    assert len(rates) >= 2
    assert all(rate > 0 for rate in rates), rates


def test_multi_channel_shares_one_recorder_and_registry():
    memory = _run_system(
        system=SystemConfig(trace=True, metrics=True), channels=2
    )
    recorders = {id(c.recorder) for c in memory.controllers}
    assert recorders == {id(memory.recorder)}
    channels_seen = {e.channel for e in memory.recorder.events}
    assert channels_seen == {0, 1}


def test_export_system_telemetry_writes_all_artifacts(tmp_path):
    memory = _run_system(system=SystemConfig(trace=True, metrics=True))
    written = export_system_telemetry(
        memory, tmp_path, stem="unit-s0", meta={"scenario": "unit", "seed": 0}
    )
    assert set(written) == {"trace_jsonl", "trace_chrome", "metrics"}
    header, events = load_trace_jsonl(written["trace_jsonl"])
    assert header["schema"] == TRACE_SCHEMA and header["scenario"] == "unit"
    assert len(events) == header["events"] == len(memory.recorder)
    chrome = json.loads(written["trace_chrome"].read_text())
    assert chrome["traceEvents"]
    metrics = json.loads(written["metrics"].read_text())
    assert metrics["samples"] >= 1  # closing sample guarantees one
    assert metrics["registry"]["counters"]["dram.refab"] >= 0
    assert set(metrics["latency_percentiles_ns"]) == {"p50", "p95", "p99"}


def test_export_with_telemetry_off_writes_nothing(tmp_path):
    memory = _run_system(system=None, requests=50)
    assert export_system_telemetry(memory, tmp_path, stem="off") == {}
    assert list(tmp_path.iterdir()) == []
