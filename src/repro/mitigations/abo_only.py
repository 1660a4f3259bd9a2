"""ABO-Only mitigation: rely solely on the Alert Back-Off protocol.

The device asserts Alert when a row reaches N_BO and the controller
issues the N_mit RFMab burst.  There is no proactive traffic, so benign
workloads see near-zero overhead at N_RH >= 1024 — but every RFM is an
activity-dependent ABO-RFM, which is exactly the observable PRACLeak
exploits.  Used as the (insecure) baseline in Figures 10-13.
"""

from __future__ import annotations

from repro.mitigations.base import MitigationPolicy


class AboOnlyPolicy(MitigationPolicy):
    """QPRAC-style PRAC with mitigation only on ABO-triggered RFMs."""

    name = "abo_only"
