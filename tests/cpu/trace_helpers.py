"""Trace builders for tests: hand-written address streams as traces.

The simulator's traces come from the synthetic workload generators and
the AES victim; tests that need a particular address pattern build it
here.
"""

from typing import Iterable, List, Optional

from repro.cpu.trace import TraceRecord


def synthesize_trace(
    addresses: Iterable[int],
    gap_insts: int = 0,
    write_every: Optional[int] = None,
) -> List[TraceRecord]:
    """Build a trace from a plain address stream.

    ``write_every=k`` marks every k-th access as a store; ``None``
    produces a read-only trace.
    """
    records = []
    for index, addr in enumerate(addresses):
        is_write = write_every is not None and (index + 1) % write_every == 0
        records.append(TraceRecord(gap_insts=gap_insts, phys_addr=addr, is_write=is_write))
    return records


def total_instructions(records: List[TraceRecord]) -> int:
    """Instruction count a trace represents (gaps + 1 per memory op)."""
    return sum(r.gap_insts + 1 for r in records)
