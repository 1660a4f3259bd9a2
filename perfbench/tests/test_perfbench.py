"""The benchmark's own tests.

Run from the repository root (they take about a minute):

    python3 -m pytest perfbench/tests -q

Whole-workload runs use ``covert_table2``, the cheapest workload, with
``seconds=0`` (exactly one timed pass).
"""

from __future__ import annotations

import copy
import json

import pytest

from perfbench import harness, run
from perfbench.tracer import Tracer
from perfbench.workloads import DEFAULT_SEED, WORKLOADS

WORKLOAD = "covert_table2"


@pytest.fixture(scope="module")
def traced_pair():
    """Two traced runs of the same workload and seed."""
    return [harness.trace(WORKLOAD, DEFAULT_SEED, 0) for _ in range(2)]


def _counts(layers):
    """The exact (non-timing) per-layer metrics."""
    return {
        name: value for name, value in layers.items()
        if not name.endswith("_s") and name != "trace.overhead"
    }


def test_traced_self_times_sum_to_traced_wall(traced_pair):
    report = traced_pair[0]
    total = sum(report["self_by_layer"].values())
    assert total == pytest.approx(report["traced_wall_s"], rel=1e-9)
    for layer in ("controller", "core", "dram", "prac", "mitigations", "attacks"):
        assert report["self_by_layer"][layer] > 0, layer


def test_op_counts_and_digests_repeat_exactly(traced_pair):
    first, second = traced_pair
    assert _counts(first["layers"]) == _counts(second["layers"])
    assert first["layers"]["controller.requests"] > 0
    for a, b in zip(first["records"], second["records"]):
        assert a["ok"] and b["ok"], (a["problems"], b["problems"])
        assert a["digest"] == b["digest"]


def test_event_spans_are_named_by_the_defining_module():
    from repro.experiments.common import DesignPoint, build_system
    from repro.workloads.synthetic import homogeneous_traces

    traces = homogeneous_traces("433.milc", cores=2, num_accesses=1500, seed=1)
    tracer = Tracer()
    with tracer.installed():
        system = build_system(DesignPoint(design="tprac", nrh=1024), traces)
        with tracer.root("op", tracer.key(system.run, "op")):
            system.run()
    events = {key[2]: key[0] for (_parent, key) in tracer.aggregates["op"] if key[1] == "event"}
    assert events["MemoryController._wake"] == "controller"
    assert events["MemoryController._finish"] == "controller"
    assert events["RefreshScheduler._do_refresh"] == "dram"
    assert events["TpracPolicy._arm_timer.<locals>.<lambda>"] == "mitigations"
    assert events["TraceCore._advance"] == "cpu"
    total = sum(tracer.self_seconds(["op"]).values())
    assert total == pytest.approx(tracer.spans[0]["duration_s"], rel=1e-9)


def test_another_seed_changes_inputs_and_digests_and_passes():
    for workload in WORKLOADS.values():
        assert workload.generate(DEFAULT_SEED) != workload.generate(DEFAULT_SEED + 1)
    report = harness.measure(WORKLOAD, DEFAULT_SEED + 1, 0)
    assert all(r["ok"] for r in report["records"]), [r["problems"] for r in report["records"]]
    references = json.loads(harness.REFERENCES.read_text())[WORKLOAD][str(DEFAULT_SEED)]
    for record in report["records"]:
        assert record["digest"] != references[record["op"]]


def test_perturbed_reference_makes_ops_fail():
    references = json.loads(harness.REFERENCES.read_text())
    perturbed = copy.deepcopy(references)
    op = next(iter(perturbed[WORKLOAD][str(DEFAULT_SEED)]))
    perturbed[WORKLOAD][str(DEFAULT_SEED)][op] = "0" * 16
    report = harness.measure(WORKLOAD, DEFAULT_SEED, 0, references=perturbed)
    failed = [r for r in report["records"] if not r["ok"]]
    assert [r["op"] for r in failed] == [op]
    assert len(failed) / len(report["records"]) > 0


def test_benchmark_json_names_the_metrics_the_harness_reports():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
