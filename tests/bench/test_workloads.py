"""Unit tests for the pinned bench workload registry."""

import pytest

from repro import bench
from repro.bench.workloads import WORKLOADS


def test_registry_names_are_stable():
    assert bench.workload_names() == [
        "perf_multi_core",
        "perf_single_core",
        "perf_multi_channel",
        "perf_cached",
        "campaign_smoke",
        "scheduler_pick",
        "scheduler_pick_fcfs",
        "scheduler_pick_fr_fcfs_cap",
    ]


def test_every_registered_scheduler_has_a_pick_workload():
    from repro.controller.scheduler import SCHEDULERS

    for name in SCHEDULERS.available():
        expected = (
            "scheduler_pick" if name == "fr_fcfs" else f"scheduler_pick_{name}"
        )
        assert expected in WORKLOADS


def test_scheduler_pick_variants_measure_picks():
    for name in ("scheduler_pick_fcfs", "scheduler_pick_fr_fcfs_cap"):
        measurement = bench.get_workload(name).run()
        assert measurement.unit == "picks"
        assert measurement.work_units > 0


def test_exactly_one_acceptance_workload_and_it_is_the_perf_shape():
    acceptance = [w for w in WORKLOADS.values() if w.acceptance]
    assert [w.name for w in acceptance] == ["perf_multi_core"]


def test_get_workload_unknown_raises_with_names():
    with pytest.raises(KeyError, match="perf_multi_core"):
        bench.get_workload("nope")


def test_scheduler_pick_microbench_measures_picks():
    measurement = bench.get_workload("scheduler_pick").run()
    assert measurement.unit == "picks"
    assert measurement.work_units > 0
    assert measurement.wall_seconds > 0
    assert measurement.events == 0  # no engine in the microbench


@pytest.mark.slow
def test_perf_single_core_measures_engine_telemetry():
    measurement = bench.get_workload("perf_single_core").run()
    assert measurement.unit == "requests"
    assert measurement.work_units == 1500
    assert measurement.events > measurement.work_units  # >1 event/request
    assert measurement.sim_ns > 0


@pytest.mark.slow
def test_campaign_smoke_probe_collects_both_systems():
    measurement = bench.get_workload("campaign_smoke").run()
    # Baseline + mitigated systems at 2 cores x 600 requests each.
    assert measurement.work_units == 2 * 2 * 600
    assert measurement.events > 0
    assert measurement.sim_ns > 0


def test_campaign_smoke_restores_probe_hook():
    from repro.campaigns import runners

    before = runners.system_probe
    bench.get_workload("campaign_smoke").run()
    assert runners.system_probe is before
