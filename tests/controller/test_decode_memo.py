"""The controller's decode memo stays bounded and changes no result."""

from repro.attacks.probes import LatencyProbe, bank_address
from repro.controller import controller as controller_module
from repro.controller.controller import MemoryController
from repro.core.engine import Engine
from repro.dram.config import ddr5_8000b
from repro.experiments.common import DesignPoint, build_system
from repro.mitigations.base import NoMitigationPolicy
from repro.workloads.synthetic import homogeneous_traces

LIMIT = controller_module._DECODE_CACHE_LIMIT


class _PeakDict(dict):
    """A dict that remembers the most entries it ever held."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if len(self) > self.peak:
            self.peak = len(self)


def _perf_run(traces):
    system = build_system(DesignPoint(design="tprac", nrh=1024), traces)
    memo = system.controller._decode_cache = _PeakDict()
    result = system.run()
    return system, result, memo


def test_memo_stays_bounded_and_changes_no_result(monkeypatch):
    traces = homogeneous_traces("433.milc", cores=2, num_accesses=2500)
    distinct = len({record.phys_addr for trace in traces for record in trace})
    assert distinct > LIMIT

    system, result, memo = _perf_run(traces)
    assert memo.peak == LIMIT  # filled, cleared, never past the limit

    monkeypatch.setattr(controller_module, "_DECODE_CACHE_LIMIT", distinct + 1)
    unbounded_system, unbounded, unbounded_memo = _perf_run(traces)
    assert unbounded_memo.peak == distinct  # never cleared

    assert result.ipcs == unbounded.ipcs
    assert result.elapsed_ns == unbounded.elapsed_ns
    assert result.rfm_by_provenance == unbounded.rfm_by_provenance
    assert result.rfm_by_provenance.get("tb", 0) > 0
    assert system.engine.events_fired == unbounded_system.engine.events_fired


def test_probe_address_is_decoded_once_per_run():
    engine = Engine()
    controller = MemoryController(
        engine, ddr5_8000b(), policy=NoMitigationPolicy(), enable_abo=False,
    )
    decode = controller.mapping.decode
    calls = []

    def counted(phys_addr):
        calls.append(phys_addr)
        return decode(phys_addr)

    controller.mapping.decode = counted
    probe = LatencyProbe(controller, bank=3)
    probe.start()
    engine.run(until=20_000.0)
    assert len(probe.result.latencies) > 100
    assert calls == [bank_address(controller, 3, 0)]
