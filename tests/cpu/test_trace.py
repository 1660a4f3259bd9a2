"""Unit tests for trace records and the trace helpers."""

import pytest

from repro.cpu.trace import TraceRecord
from tests.cpu.trace_helpers import synthesize_trace, total_instructions


def test_record_validation():
    with pytest.raises(ValueError):
        TraceRecord(gap_insts=-1, phys_addr=0)
    with pytest.raises(ValueError):
        TraceRecord(gap_insts=0, phys_addr=-4)


def test_synthesize_trace_marks_writes():
    trace = synthesize_trace([0, 64, 128, 192], gap_insts=5, write_every=2)
    assert [r.is_write for r in trace] == [False, True, False, True]
    assert all(r.gap_insts == 5 for r in trace)


def test_synthesize_readonly_by_default():
    trace = synthesize_trace([0, 64])
    assert not any(r.is_write for r in trace)


def test_total_instructions():
    trace = synthesize_trace([0, 64], gap_insts=9)
    assert total_instructions(trace) == 20
