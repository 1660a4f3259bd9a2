"""Unit tests for the trace-driven core model."""

from collections import Counter

from repro.attacks.probes import bank_address
from repro.controller.controller import MemoryController
from repro.core.engine import Engine
from repro.cpu.core import WIDTH, TraceCore
from repro.cpu.trace import TraceRecord
from tests.cpu.trace_helpers import synthesize_trace
from repro.dram.config import small_test_config
from repro.experiments.common import DesignPoint, build_system
from repro.mitigations.base import NoMitigationPolicy
from repro.workloads.synthetic import homogeneous_traces


def _small_rob(rob_size):
    """A core class with a ``rob_size``-entry reorder buffer."""

    class SmallRobCore(TraceCore):
        def __init__(self, *args):
            super().__init__(*args)
            self._rob_size = rob_size

    return SmallRobCore


def _run_core(records, core_class=TraceCore):
    engine = Engine()
    controller = MemoryController(
        engine, small_test_config(), policy=NoMitigationPolicy(),
        enable_refresh=False, enable_abo=False,
    )
    core = core_class(engine, controller, records, 0)
    core.start()
    engine.run(until=100_000_000)
    return core


def test_core_completes_trace():
    records = synthesize_trace([i * 8192 * 64 for i in range(10)], gap_insts=10)
    core = _run_core(records)
    assert core.finished
    assert core.dram_requests == 10
    assert core.insts_retired == 10 * 11


def test_ipc_positive_and_bounded_by_width():
    records = synthesize_trace([0] * 20, gap_insts=100)
    core = _run_core(records)
    assert 0 < core.ipc <= WIDTH


def test_compute_heavy_trace_has_higher_ipc():
    lean = _run_core(synthesize_trace([i * 2**20 for i in range(20)], gap_insts=2))
    fat = _run_core(synthesize_trace([i * 2**20 for i in range(20)], gap_insts=500))
    assert fat.ipc > lean.ipc


def test_rob_window_limits_run_ahead():
    """With rob_size=1 every miss serializes; bigger ROB overlaps."""
    addresses = [i * 2**22 for i in range(30)]   # all different banks/rows
    slow = _run_core(synthesize_trace(addresses, gap_insts=0), _small_rob(1))
    fast = _run_core(synthesize_trace(addresses, gap_insts=0))
    assert fast.finish_time < slow.finish_time


def test_start_is_idempotent():
    records = synthesize_trace([0], gap_insts=1)
    engine = Engine()
    controller = MemoryController(
        engine, small_test_config(), policy=NoMitigationPolicy(),
        enable_refresh=False,
    )
    core = TraceCore(engine, controller, records, 0)
    core.start()
    core.start()
    engine.run(until=10_000_000)
    assert core.dram_requests == 1


def test_empty_trace_finishes_immediately():
    core = _run_core([])
    assert core.finished
    assert core.insts_retired == 0


class _Recorder:
    """A memory target that keeps every request and forwards it."""

    def __init__(self, controller):
        self.controller = controller
        self.requests = []

    def enqueue(self, request):
        self.requests.append(request)
        self.controller.enqueue(request)


def _watch_core_events(engine):
    """Fail as soon as one core has two of its own events pending."""
    pending = Counter()
    schedule = engine.schedule

    def watched(time, callback, priority=0, label=""):
        core = getattr(callback, "__self__", None)
        if not isinstance(core, TraceCore):
            return schedule(time, callback, priority, label)
        pending[core.core_id] += 1
        assert pending[core.core_id] == 1, f"core {core.core_id}: two pending"

        def fire():
            pending[core.core_id] -= 1
            callback()

        return schedule(time, fire, priority, label)

    engine.schedule = watched
    return pending


def test_younger_hit_retires_before_older_conflict():
    engine = Engine()
    controller = MemoryController(
        engine, small_test_config(), policy=NoMitigationPolicy(),
        enable_refresh=False, enable_abo=False,
    )
    memory = _Recorder(controller)
    pending = _watch_core_events(engine)
    def at_column(bank, column):
        """Row 0, ``column`` of flat bank ``bank``."""
        mapping = controller.mapping
        row_0 = mapping.decode(bank_address(controller, bank, 0))
        return mapping.encode(row_0._replace(column=column))

    records = [
        TraceRecord(0, bank_address(controller, 1, 0)),  # opens bank 1
        TraceRecord(0, bank_address(controller, 0, 0)),  # opens bank 0
        TraceRecord(0, bank_address(controller, 0, 1)),  # older conflict
        TraceRecord(0, at_column(1, 1)),  # younger hit
        # Past the ROB window while the conflict is outstanding.
        TraceRecord(7, at_column(1, 2)),
    ]
    core = _small_rob(8)(engine, memory, records, 0)
    core.start()
    engine.run(until=1_000_000)

    assert core.finished
    assert core.dram_requests == 5
    assert core.insts_retired == 4 + 8
    assert not core._outstanding
    assert sum(pending.values()) == 0
    _, _, conflict, hit, gated = memory.requests
    assert controller.stats.row_conflicts == 1
    # The younger hit completed first: _dram_done took the remove path.
    assert hit.done_time < conflict.done_time
    # The ROB gate held the last record until the conflict retired.
    assert gated.arrive_time > hit.done_time
    assert gated.arrive_time >= conflict.done_time


def test_no_core_has_two_events_pending_in_a_perf_run():
    traces = homogeneous_traces("470.lbm", cores=2, num_accesses=500)
    system = build_system(DesignPoint(design="tprac", nrh=1024), traces)
    pending = _watch_core_events(system.engine)
    system.run()
    assert all(core.finished and core.dram_requests == 500 for core in system.cores)
    assert sum(pending.values()) == 0
