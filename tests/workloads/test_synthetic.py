"""Tests for synthetic trace generation."""


from tests.cpu.trace_helpers import total_instructions
from repro.workloads.catalog import get_workload
from repro.workloads.synthetic import (
    SyntheticWorkload,
    generate_trace,
    homogeneous_traces,
)


def test_trace_is_deterministic_per_seed():
    a = generate_trace("433.milc", 200, seed=1)
    b = generate_trace("433.milc", 200, seed=1)
    assert a == b


def test_different_seeds_differ():
    a = generate_trace("433.milc", 200, seed=1)
    b = generate_trace("433.milc", 200, seed=2)
    assert a != b


def test_addresses_stay_within_core_footprint():
    spec = get_workload("401.bzip2")
    workload = SyntheticWorkload(spec, core_offset=3)
    trace = workload.generate(500)
    lo = workload.base
    hi = workload.base + workload.footprint_bytes
    assert all(lo <= r.phys_addr < hi for r in trace)


def test_core_offsets_are_disjoint():
    t0 = generate_trace("401.bzip2", 300, core_offset=0)
    t1 = generate_trace("401.bzip2", 300, core_offset=1)
    a0 = {r.phys_addr for r in t0}
    a1 = {r.phys_addr for r in t1}
    assert not (a0 & a1)


def test_gap_density_tracks_rbmpki():
    """Higher-RBMPKI workloads access memory more often per instruction."""
    heavy = generate_trace("429.mcf", 2000)
    light = generate_trace("453.povray", 2000)
    heavy_rate = 2000 / total_instructions(heavy) * 1000
    light_rate = 2000 / total_instructions(light) * 1000
    assert heavy_rate > 20 * light_rate


def test_measured_rbmpki_in_category_band():
    """Generated density matches the target within a factor of 2."""
    for name in ("433.milc", "401.bzip2"):
        spec = get_workload(name)
        trace = generate_trace(name, 3000)
        accesses_pki = 3000 / total_instructions(trace) * 1000
        target = spec.rbmpki / (1 - spec.row_locality)
        assert target / 2 < accesses_pki < target * 2


def test_write_fraction_approximated():
    spec = get_workload("470.lbm")
    trace = generate_trace("470.lbm", 4000)
    frac = sum(r.is_write for r in trace) / len(trace)
    assert abs(frac - spec.write_fraction) < 0.05


def test_locality_produces_sequential_runs():
    trace = generate_trace("410.bwaves", 2000)   # locality 0.55
    sequential = sum(
        1
        for prev, cur in zip(trace, trace[1:])
        if cur.phys_addr == prev.phys_addr + 64
    )
    assert sequential / len(trace) > 0.3


def test_homogeneous_traces_shape():
    traces = homogeneous_traces("433.milc", cores=4, num_accesses=50)
    assert len(traces) == 4
    assert all(len(t) == 50 for t in traces)
