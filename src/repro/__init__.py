"""repro — a from-scratch reproduction of PRACLeak and TPRAC.

Paper: "When Mitigations Backfire: Timing Channel Attacks and Defense
for PRAC-Based RowHammer Mitigations" (ISCA 2025).

Layered architecture (bottom-up):

* :mod:`repro.core` — discrete-event simulation kernel.
* :mod:`repro.config` — the declarative :class:`SystemConfig` every
  system is built from.
* :mod:`repro.dram` — DDR5 device model with PRAC timings.
* :mod:`repro.prac` — Alert Back-Off protocol and mitigation queues.
* :mod:`repro.controller` — per-channel memory controllers (FR-FCFS
  over the MOP mapping, periodic REFab) + RFM issuing, behind a
  multi-channel :class:`MemorySystem` facade.
* :mod:`repro.mitigations` — ABO-Only / ABO+ACB-RFM / TPRAC / §7 variants.
* :mod:`repro.cpu` — trace-driven cores issuing into the memory system.
* :mod:`repro.crypto` — AES-128 T-table substrate (the side-channel victim).
* :mod:`repro.attacks` — PRACLeak covert and side channels.
* :mod:`repro.workloads` — synthetic SPEC/CloudSuite-like catalog.
* :mod:`repro.analysis` — Feinting/TB-Window math, metrics, energy.
* :mod:`repro.experiments` — one harness per paper table/figure.
"""

__version__ = "1.1.0"

from repro.config import SystemConfig
from repro.core.engine import Engine
from repro.dram.config import DramConfig, ddr5_8000b, small_test_config
from repro.controller.controller import MemoryController
from repro.controller.memory_system import MemorySystem
from repro.controller.request import MemRequest
from repro.mitigations import (
    AboOnlyPolicy,
    AcbRfmPolicy,
    NoMitigationPolicy,
    ObfuscationPolicy,
    PerBankRfmPolicy,
    TpracPolicy,
    make_policy,
)
from repro.analysis.tb_window import tb_window_for_nrh

__all__ = [
    "AboOnlyPolicy",
    "AcbRfmPolicy",
    "DramConfig",
    "Engine",
    "MemRequest",
    "MemoryController",
    "MemorySystem",
    "NoMitigationPolicy",
    "ObfuscationPolicy",
    "PerBankRfmPolicy",
    "SystemConfig",
    "TpracPolicy",
    "__version__",
    "ddr5_8000b",
    "make_policy",
    "small_test_config",
    "tb_window_for_nrh",
]
