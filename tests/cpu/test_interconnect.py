"""Unit tests for the interconnect models and the front shim."""

import pytest

from repro.core.engine import Engine
from repro.controller.request import MemRequest
from repro.cpu.interconnect import (
    INTERCONNECTS,
    CrossbarInterconnect,
    FixedLatencyInterconnect,
    InterconnectFront,
)


# ----------------------------------------------------------------------
# Fixed-latency link
# ----------------------------------------------------------------------
def test_fixed_latency_is_constant_and_uncontended():
    link = FixedLatencyInterconnect(latency_ns=3.0)
    assert link.grant(0, 10.0) == 13.0
    assert link.grant(0, 10.0) == 13.0  # same instant: no queuing
    assert link.transfers == 2
    assert link.queued == 0
    stats = link.stats(elapsed_ns=100.0)
    assert stats["kind"] == "fixed"
    assert stats["occupancy"] == 0.0


# ----------------------------------------------------------------------
# Crossbar
# ----------------------------------------------------------------------
def test_crossbar_fifo_ordering_under_contention():
    bar = CrossbarInterconnect(ports=2, latency_ns=4.0, occupancy_ns=1.0)
    addr = 0  # port 0
    same_port = addr + 2 * 64 * bar.ports  # still port 0
    assert bar.port_of(addr) == bar.port_of(same_port) == 0
    # Three transfers arrive at the same instant on one port: delivery
    # times are strictly increasing by the port occupancy (FIFO).
    deliveries = [bar.grant(a, 0.0) for a in (addr, same_port, addr)]
    assert deliveries == [4.0, 5.0, 6.0]
    assert bar.queued == 2
    assert bar.total_wait_ns == pytest.approx(1.0 + 2.0)


def test_crossbar_ports_do_not_contend():
    bar = CrossbarInterconnect(ports=2, latency_ns=4.0, occupancy_ns=1.0)
    assert bar.grant(0, 0.0) == 4.0    # port 0
    assert bar.grant(64, 0.0) == 4.0   # port 1: unaffected
    assert bar.queued == 0


def test_crossbar_idle_port_does_not_wait():
    bar = CrossbarInterconnect(ports=1, latency_ns=4.0, occupancy_ns=1.0)
    bar.grant(0, 0.0)
    # Arriving after the port freed: no queuing recorded.
    assert bar.grant(0, 10.0) == 14.0
    assert bar.queued == 0


def test_crossbar_occupancy_accounting():
    bar = CrossbarInterconnect(ports=4, latency_ns=4.0, occupancy_ns=2.0)
    for i in range(8):
        bar.grant(i * 64, 0.0)
    assert bar.busy_ns == pytest.approx(16.0)
    # 16 ns of port-time over 4 ports x 100 ns.
    assert bar.occupancy(100.0) == pytest.approx(0.04)
    assert bar.stats(100.0)["occupancy"] == pytest.approx(0.04)
    assert bar.occupancy(0.0) == 0.0


def test_crossbar_validation():
    with pytest.raises(ValueError, match="occupancy_ns"):
        CrossbarInterconnect(occupancy_ns=0.0)
    with pytest.raises(ValueError, match="at least one port"):
        CrossbarInterconnect(ports=0)


# ----------------------------------------------------------------------
# Registry + front shim
# ----------------------------------------------------------------------
def test_interconnect_registry_spellings():
    assert sorted(INTERCONNECTS.available()) == ["crossbar", "fixed", "none"]
    assert INTERCONNECTS.make("none") is None
    assert isinstance(INTERCONNECTS.make("fixed"), FixedLatencyInterconnect)
    bar = INTERCONNECTS.make("crossbar", ports=8)
    assert isinstance(bar, CrossbarInterconnect) and bar.ports == 8
    with pytest.raises(ValueError) as excinfo:
        INTERCONNECTS.get("mesh")
    assert "(config field 'interconnect')" in str(excinfo.value)


def test_front_delivers_in_grant_order():
    class SinkMemory:
        def __init__(self, engine):
            self.engine = engine
            self.arrivals = []

        def enqueue(self, request):
            self.arrivals.append((self.engine.now, request.phys_addr))

    engine = Engine()
    memory = SinkMemory(engine)
    front = InterconnectFront(
        engine, memory, CrossbarInterconnect(ports=1, latency_ns=4.0, occupancy_ns=1.0)
    )
    for addr in (0, 64, 128):
        front.enqueue(MemRequest(phys_addr=addr))
    engine.run()
    # One port: arrivals keep issue order and are spaced by occupancy.
    assert memory.arrivals == [(4.0, 0), (5.0, 64), (6.0, 128)]
