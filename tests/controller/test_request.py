"""Unit tests for MemRequest bookkeeping."""

import pytest

from repro.controller.request import MemRequest


def test_latency_requires_completion():
    request = MemRequest(phys_addr=0)
    request.arrive_time = 10.0
    with pytest.raises(RuntimeError):
        _ = request.latency
    request.complete(35.0)
    assert request.latency == 25.0


def test_complete_invokes_callback_once_with_request():
    seen = []
    request = MemRequest(phys_addr=64, on_complete=seen.append)
    request.complete(5.0)
    assert seen == [request]
    assert request.done_time == 5.0


def test_callback_optional():
    MemRequest(phys_addr=0).complete(1.0)   # must not raise


def test_repr_shows_kind_and_address():
    read = repr(MemRequest(phys_addr=0x40))
    write = repr(MemRequest(phys_addr=0x40, is_write=True))
    assert "RD" in read and "WR" in write and "0x40" in read
