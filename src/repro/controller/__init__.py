"""Memory controller: request scheduling, RFM issuing, statistics.

* :mod:`repro.controller.request` — the memory request record.
* :mod:`repro.controller.scheduler` — the per-bank FR-FCFS request
  scheduler with a row-hit cap.
* :mod:`repro.controller.controller` — the event-driven controller
  that ties banks, the ABO protocol, refresh and mitigation policies
  together.
* :mod:`repro.controller.stats` — latency/RFM bookkeeping.
"""

from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.controller.scheduler import BankQueueScheduler
from repro.controller.stats import ControllerStats, RfmRecord

__all__ = [
    "BankQueueScheduler",
    "ControllerStats",
    "MemRequest",
    "MemoryController",
    "RfmRecord",
]
