"""PRAC protocol machinery: Alert Back-Off and mitigation queues.

Per-row activation counters live on :class:`repro.dram.bank.Bank`; this
package adds the protocol layer on top of them:

* :mod:`repro.prac.abo` — the Alert Back-Off state machine that asserts
  Alert when any counter reaches the Back-Off threshold (N_BO) and
  drives the controller to issue RFMab commands.
* :mod:`repro.prac.mitigation_queue` — in-DRAM mitigation queue
  designs: the single-entry frequency queue TPRAC proposes and a
  QPRAC-style priority queue.
"""

from repro.prac.abo import AboProtocol, AboState
from repro.prac.mitigation_queue import (
    MitigationQueue,
    PriorityMitigationQueue,
    SingleEntryFrequencyQueue,
)

__all__ = [
    "AboProtocol",
    "AboState",
    "MitigationQueue",
    "PriorityMitigationQueue",
    "SingleEntryFrequencyQueue",
]
