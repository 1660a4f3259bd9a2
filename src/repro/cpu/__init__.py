"""CPU-side model: trace records, trace-driven cores, system.

The reproduction does not need a full out-of-order pipeline — the
paper's performance deltas come from DRAM-side stalls.  Cores are
trace-driven with a ROB-window model: a core may run ahead of its
oldest outstanding DRAM miss by at most ``ROB_SIZE`` instructions,
which yields realistic memory-level parallelism (and hence realistic
sensitivity to RFM-induced channel blocking).  The synthetic traces
are DRAM-level miss streams, so every core issues straight into the
memory system; there is no cache model in front of it.
"""

from repro.cpu.core import TraceCore
from repro.cpu.system import System, SystemResult
from repro.cpu.trace import TraceRecord

__all__ = [
    "System",
    "SystemResult",
    "TraceCore",
    "TraceRecord",
]
