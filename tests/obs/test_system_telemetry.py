"""Telemetry wired through the real memory system.

The zero-overhead-off contract: with ``trace``/``metrics`` at their
defaults nothing is attached and simulation results are identical to a
telemetry-enabled run — turning observation on must never perturb what
is observed.  The metrics file's counts are read from fields every run
keeps, so they need no hooks of their own.
"""

from collections import Counter
import json

import pytest

from repro.attacks.probes import bank_address
from repro.config import SystemConfig
from repro.controller.memory_system import MemorySystem
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.cpu.system import System
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations import (
    AboOnlyPolicy,
    PerBankRfmPolicy,
    QpracPolicy,
    TpracPolicy,
)
from repro.obs.export import export_system_telemetry, run_counters
from repro.obs.trace import TRACE_SCHEMA, load_trace_jsonl
from repro.workloads.synthetic import homogeneous_traces

pytestmark = pytest.mark.smoke


def _run_system(system=None, requests=300, channels=1, policy=None):
    # The workload must be identical across telemetry settings, so all
    # requests are enqueued up front (arrival pattern independent of
    # how many engine events each configuration fires per step).
    engine = Engine()
    config = small_test_config().with_organization(channels=channels)
    memory = MemorySystem(engine, config, policy=policy, system=system)
    for index in range(requests):
        addr = (index * 977) % (1 << 20)
        memory.enqueue(MemRequest(addr, is_write=(index % 8 == 7)))
    controllers = memory.controllers
    while any(c.scheduler.pending() or c._pending_rfms for c in controllers):
        engine.run(max_events=1)
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


def _assert_only_controller_hooks(memory):
    """The ABO and refresh hook lists hold the controller's own hooks
    and nothing a telemetry layer installed."""
    for controller in memory.controllers:
        assert controller.recorder is None
        assert controller.abo.on_alert == [controller._on_alert]
        refresh = controller.refresh
        assert refresh.on_refresh == [controller._invalidate_ready_cache]
        assert refresh.on_tref == [controller._on_tref]
        assert refresh.on_refw == [controller._on_refw]


def test_telemetry_off_attaches_nothing():
    memory = _run_system(system=None, requests=50)
    assert memory.recorder is None
    assert memory.sampler is None
    _assert_only_controller_hooks(memory)


def test_metrics_attaches_only_the_sampler():
    memory = _run_system(system=SystemConfig(metrics=True), requests=50)
    assert memory.recorder is None
    assert memory.sampler is not None
    _assert_only_controller_hooks(memory)


def test_telemetry_does_not_perturb_simulation_results():
    baseline = _result_fingerprint(_run_system(system=None))
    traced = _result_fingerprint(
        _run_system(system=SystemConfig(trace=True, metrics=True))
    )
    assert traced == baseline


def test_trace_records_commands_and_lifecycle():
    memory = _run_system(system=SystemConfig(trace=True))
    recorder = memory.recorder
    assert recorder is not None and recorder.events
    counts = Counter(event.kind for event in recorder.events)
    assert counts["ACT"] > 0 and counts["RD"] > 0 and counts["WR"] > 0
    # every ACT also logs the row's PRAC counter value
    assert counts["prac.counter"] == counts["ACT"]


def test_metrics_registry_collects_core_counters(tmp_path):
    # 300 requests drain in under one tREFI; use a longer workload so at
    # least one REFab lands inside the observed window.
    memory = _run_system(system=SystemConfig(metrics=True), requests=4000)
    written = export_system_telemetry(memory, tmp_path, stem="core-s0")
    registry = json.loads(written["metrics"].read_text())["registry"]
    assert registry["gauges"] == {} and registry["histograms"] == {}
    counters = registry["counters"]
    refabs = sum(c.refresh.refresh_count for c in memory.controllers)
    assert counters["dram.refab"] == refabs > 0
    assert "abo.alerts" in counters
    assert "rfm.abo" in counters


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


def test_multi_channel_shares_one_recorder():
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
    assert len(events) == header["events"] == len(memory.recorder.events)
    chrome = json.loads(written["trace_chrome"].read_text())
    assert chrome["traceEvents"]
    metrics = json.loads(written["metrics"].read_text())
    assert metrics["samples"] >= 1  # closing sample guarantees one
    assert metrics["registry"]["counters"]["dram.refab"] == memory.refresh_count
    assert set(metrics["latency_percentiles_ns"]) == {"p50", "p95", "p99"}


def test_export_with_telemetry_off_writes_nothing(tmp_path):
    memory = _run_system(system=None, requests=50)
    assert export_system_telemetry(memory, tmp_path, stem="off") == {}
    assert list(tmp_path.iterdir()) == []


def test_export_counts_per_bank_tb_rfms(tmp_path):
    # RFMpb issues its TB-RFMs outside the controller's RFMab burst;
    # the exported counts must still include them.
    memory = _run_system(
        system=SystemConfig(metrics=True),
        policy=PerBankRfmPolicy(tb_window=2000.0),
    )
    written = export_system_telemetry(memory, tmp_path, stem="rfmpb-s0")
    counters = json.loads(written["metrics"].read_text())["registry"]["counters"]
    stats = memory.stats
    assert counters["rfm.tb"] == stats.rfm_count(RfmProvenance.TB) > 0
    assert counters["mitigation.rows"] == stats.mitigated_row_total


# ----------------------------------------------------------------------
# run_counters: every exported count against the field it comes from
# ----------------------------------------------------------------------
BASE_KEYS = {
    "abo.alerts", "dram.refab", "dram.tref", "mitigation.rows",
    "prac.counter_resets", "rfm.abo", "rfm.acb", "rfm.random", "rfm.tb",
}


def _counted_run(
    policy=None, nbo=64, channels=1, tref_per_trefi=0.0,
    hammer=False, requests=300, until=30_000.0,
):
    """Run a small system up to ``until`` ns on two request chains;
    each chain issues its next request when its previous one completes.

    The default stream sends each line two requests in a row, so the
    pair is in flight together: a 4 KB hot set first, then a 32 KB
    sweep.  ``hammer`` instead alternates two rows of bank 0, so every
    request re-activates its row.
    """
    engine = Engine()
    memory = MemorySystem(
        engine,
        small_test_config(nbo=nbo),
        policy_factory=None if policy is None else lambda channel_id: policy(),
        tref_per_trefi=tref_per_trefi,
        system=SystemConfig(channels=channels),
    )
    if hammer:
        rows = [bank_address(memory.controllers[0], 0, row) for row in (10, 11)]
        addresses = [rows[index % 2] for index in range(requests)]
    else:
        addresses = [
            (index // 2 * 977) % (1 << 12 if index < 200 else 1 << 15)
            for index in range(requests)
        ]
    pending = iter(enumerate(addresses))

    def issue(_request=None):
        for index, addr in pending:
            memory.enqueue(
                MemRequest(addr, is_write=(index % 8 == 7), on_complete=issue)
            )
            return

    issue()
    issue()
    engine.run(until=until)
    return memory


def _source_counts(memory):
    """The expected counts, read through each component's own view."""
    controllers = memory.controllers
    records = [r for c in controllers for r in c.stats.rfm_records]
    expected = {
        "abo.alerts": sum(c.abo.alert_count for c in controllers),
        "dram.refab": memory.refresh_count,
        "dram.tref": sum(c.refresh.tref_count for c in controllers),
        "prac.counter_resets": sum(c.refresh.counter_resets for c in controllers),
        "mitigation.rows": sum(len(r.mitigated_rows) for r in records),
    }
    for provenance in RfmProvenance:
        expected[f"rfm.{provenance.value}"] = sum(
            r.provenance is provenance for r in records
        )
    if controllers[0].policy is not None:
        expected["policy.mitigations"] = sum(
            c.policy.mitigations_performed for c in controllers
        )
    return expected


def _tprac():
    return TpracPolicy(tb_window=2000.0)


COUNTER_CASES = {
    # case: (_counted_run kwargs, extra keys, keys the case must move
    # to distinct nonzero values)
    "tprac": (dict(policy=_tprac), {"policy.mitigations"}, ("rfm.tb",)),
    "abo_only-hammer": (
        dict(policy=AboOnlyPolicy, nbo=8, hammer=True, requests=200),
        {"policy.mitigations"},
        ("abo.alerts",),
    ),
    "qprac": (
        dict(policy=QpracPolicy), {"policy.mitigations"}, ("policy.mitigations",)
    ),
    "channels=2": (
        dict(policy=_tprac, channels=2), {"policy.mitigations"}, ("rfm.tb",)
    ),
    "tref_per_trefi=0.5": (
        dict(policy=_tprac, tref_per_trefi=0.5),
        {"policy.mitigations"},
        ("dram.tref",),
    ),
    # an idle channel past two tREFW boundaries
    "idle-2trefw": (
        dict(requests=0, until=2 * small_test_config().timing.tREFW + 1.0),
        set(),
        ("prac.counter_resets",),
    ),
}


@pytest.mark.parametrize("case", sorted(COUNTER_CASES))
def test_run_counters_read_the_always_on_fields(case):
    kwargs, extra_keys, moved = COUNTER_CASES[case]
    memory = _counted_run(**kwargs)
    counters = run_counters(memory)
    assert list(counters) == sorted(BASE_KEYS | extra_keys)
    assert all(type(value) is float for value in counters.values())
    assert counters == _source_counts(memory)
    moved_values = [counters[key] for key in moved]
    assert all(value > 0 for value in moved_values), counters
    assert len(set(moved_values)) == len(moved_values), counters
