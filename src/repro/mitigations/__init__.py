"""RowHammer mitigation policies evaluated in the paper.

* :class:`AboOnlyPolicy` — relies solely on the Alert Back-Off protocol
  (insecure against timing channels; leaks per-row activation counts).
* :class:`AcbRfmPolicy` — ABO plus proactive Activation-Based RFMs at
  the Bank Activation threshold (BAT); the JEDEC-standard Targeted-RFM
  flow.  Avoids ABO-RFMs but still activity-dependent, hence leaky.
* :class:`TpracPolicy` — the paper's defense: Timing-Based RFMs at a
  fixed TB-Window, single-entry frequency queue per bank, optional
  Targeted-Refresh co-design and counter-reset policies.
* :class:`ObfuscationPolicy` — Section 7.1 alternative: random RFM
  injection (reduces but does not eliminate leakage).
* :class:`PerBankRfmPolicy` — Section 7.2 extension: TB-RFMs issued as
  per-bank RFMs (RFMpb) to reduce bandwidth loss.
* :class:`NoMitigationPolicy` — the normalization baseline: PRAC
  timings, no mitigation traffic at all.

:func:`make_policy` builds a policy by name from explicit parameters;
:func:`policy_factory` derives the device-dependent ones (TB-Window,
BAT) and is what every path that assembles a system uses.
"""

from repro.mitigations.base import MitigationPolicy, NoMitigationPolicy
from repro.mitigations.abo_only import AboOnlyPolicy
from repro.mitigations.acb_rfm import AcbRfmPolicy
from repro.mitigations.tprac import TpracPolicy
from repro.mitigations.obfuscation import ObfuscationPolicy
from repro.mitigations.rfmpb import PerBankRfmPolicy
from repro.mitigations.qprac import QpracPolicy
from typing import TYPE_CHECKING, Any, Callable, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.dram.config import DramConfig

__all__ = [
    "AboOnlyPolicy",
    "AcbRfmPolicy",
    "MITIGATIONS",
    "MitigationPolicy",
    "NoMitigationPolicy",
    "ObfuscationPolicy",
    "PerBankRfmPolicy",
    "QpracPolicy",
    "TpracPolicy",
    "available",
    "get",
    "make_policy",
    "policy_factory",
]

#: Mitigation name -> policy class.  Everything that addresses a
#: mitigation by name — the CLI, campaign grids, experiment configs —
#: goes through this one table, so a policy added here is immediately
#: sweepable everywhere.
MITIGATIONS: Dict[str, Callable[..., MitigationPolicy]] = {
    "none": NoMitigationPolicy,
    "abo_only": AboOnlyPolicy,
    "abo_acb": AcbRfmPolicy,
    "tprac": TpracPolicy,
    "obfuscation": ObfuscationPolicy,
    "rfmpb": PerBankRfmPolicy,
    "qprac": QpracPolicy,
}


def available() -> List[str]:
    """Sorted names of every mitigation policy."""
    return sorted(MITIGATIONS)


def get(name: str) -> Callable[..., MitigationPolicy]:
    """The policy factory (class) named ``name``.

    An unknown name raises ``ValueError`` naming the config field and
    the valid names.
    """
    try:
        return MITIGATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mitigation policy {name!r} (config field "
            f"'mitigation'); have {available()}"
        ) from None


def make_policy(name: str, **kwargs: Any) -> MitigationPolicy:
    """Instantiate the policy registered under ``name``.

    Names: see :func:`available` (``none``, ``abo_only``, ``abo_acb``,
    ``tprac``, ``obfuscation``, ``rfmpb``, ``qprac``).
    """
    return get(name)(**kwargs)


def policy_factory(
    name: str, config: "DramConfig", seed: int = 0
) -> MitigationPolicy:
    """A fresh policy ``name`` for one controller on ``config``.

    The device-dependent parameters are derived here, once per call,
    from ``config.prac``: TPRAC's and RFMpb's TB-Window is the longest
    window whose Feinting worst case stays below N_BO (Equation 1,
    honouring ``reset_on_refresh``), and ACB-RFM's BAT is
    :meth:`AcbRfmPolicy.bat_for_threshold` of N_BO.  ``obfuscation``
    is seeded with ``seed``.
    """
    factory = get(name)
    params: Dict[str, Any] = {}
    if name in ("tprac", "rfmpb"):
        # Looked up at call time (not imported at module top), so a
        # wrapper installed on the module attribute sees every solve.
        from repro.analysis.tb_window import required_tb_window

        params["tb_window"] = required_tb_window(
            config, config.prac.nbo, with_reset=config.prac.reset_on_refresh
        )
    elif name == "abo_acb":
        params["bat"] = AcbRfmPolicy.bat_for_threshold(config.prac.nbo)
    elif name == "obfuscation":
        params["seed"] = seed
    return factory(**params)
