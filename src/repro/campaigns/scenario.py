"""The declarative scenario spec: one attack×defense×workload point.

A :class:`Scenario` names everything one Monte Carlo trial needs —
which attacker runs (:mod:`repro.attacks`), which mitigation defends
(by name, :func:`repro.mitigations.get`), which workload mix drives
the memory system (:mod:`repro.workloads.catalog`), which DRAM device
variant hosts it all (:data:`repro.dram.config.PRESETS` plus the PRAC
knobs ``nbo`` / ``prac_level``), and which observers the memory system
carries — the ``sanitize`` / ``trace`` / ``metrics`` switches project
onto a :class:`repro.config.SystemConfig`
(:meth:`Scenario.system_config`).  ``params`` carry per-attack tuning
(symbol counts, encryption budgets, pool sizes).

Scenarios are plain data: they round-trip through dicts/JSON, cross
process-pool boundaries by value, and are identified by a stable
content hash of their spec (:attr:`Scenario.scenario_id`), which is
what makes campaign results cacheable and resumable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping

from repro import mitigations
from repro.analysis.storage import content_key
from repro.config import SystemConfig
from repro.dram.config import PRESETS, DramConfig
from repro.workloads.catalog import CATALOG

#: Attack kinds the trial dispatcher knows how to run.  ``perf`` is the
#: "no attacker" point (pure mitigation overhead); ``selftest`` is the
#: engine's own cheap deterministic kind, used by smoke grids and the
#: fault-injection tests.
ATTACK_KINDS = (
    "perf",
    "covert_activity",
    "covert_count",
    "aes_side_channel",
    "feinting",
    "selftest",
)

#: Workload value meaning "no background workload drives the system".
NO_WORKLOAD = "none"

#: The covert-channel kinds: a workload on them is background noise of
#: ``noise_accesses`` requests.
COVERT_KINDS = ("covert_activity", "covert_count")

#: Mitigations the AES attack runs against: undefended (ABO-Only) or
#: TPRAC.  Any other name would rerun one of these two simulations
#: under a second scenario ID.
AES_MITIGATIONS = ("abo_only", "tprac")

#: The ``dram`` and ``prac_level`` axes' defaults.
DEFAULT_DRAM = "ddr5_8000b"
DEFAULT_PRAC_LEVEL = 1


@dataclass(frozen=True)
class Scenario:
    """One fully specified victim × attacker × mitigation × device point."""

    attack: str
    mitigation: str = "abo_only"
    workload: str = NO_WORKLOAD
    dram: str = DEFAULT_DRAM
    nbo: int = 256
    prac_level: int = DEFAULT_PRAC_LEVEL
    sanitize: bool = False
    trace: bool = False
    metrics: bool = False
    params: Mapping[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def validate(self) -> "Scenario":
        """Raise ValueError on any unknown/inconsistent axis value."""
        if self.attack not in ATTACK_KINDS:
            raise ValueError(
                f"unknown attack {self.attack!r}; have {list(ATTACK_KINDS)}"
            )
        if self.mitigation not in mitigations.available():
            raise ValueError(
                f"unknown mitigation {self.mitigation!r}; "
                f"have {mitigations.available()}"
            )
        if self.workload != NO_WORKLOAD and self.workload not in CATALOG:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"see repro.workloads.workload_names()"
            )
        if self.attack == "perf" and self.workload == NO_WORKLOAD:
            raise ValueError("perf scenarios need a workload axis")
        if self.attack == "aes_side_channel" and self.mitigation not in AES_MITIGATIONS:
            raise ValueError(
                f"aes_side_channel supports mitigation in {list(AES_MITIGATIONS)}, "
                f"not {self.mitigation!r}"
            )
        if self.attack == "feinting" and self.mitigation != "tprac":
            raise ValueError("feinting scenarios attack TPRAC; set mitigation=tprac")
        if self.attack in ("aes_side_channel", "feinting") and self.workload != NO_WORKLOAD:
            raise ValueError(
                f"{self.attack} runs no background workload; drop workload="
                f"{self.workload!r}"
            )
        device = (self.dram, self.prac_level)
        if self.attack == "feinting" and device != (DEFAULT_DRAM, DEFAULT_PRAC_LEVEL):
            raise ValueError(
                "feinting runs on the attack's own small device; drop the "
                f"dram={self.dram!r} / prac_level={self.prac_level} axes"
            )
        if self.dram not in PRESETS:
            raise ValueError(
                f"unknown DRAM preset {self.dram!r}; have {sorted(PRESETS)}"
            )
        if self.nbo <= 0:
            raise ValueError("nbo must be positive")
        if self.prac_level not in (1, 2, 4):
            raise ValueError("prac_level must be 1, 2 or 4")
        # The observer axes delegate to SystemConfig.validate: the
        # same checks as every other construction path.
        system = self.system_config().validate()
        if self.attack != "perf" and not system.is_default():
            changed = sorted(system.to_dict())
            raise ValueError(
                f"non-default {'/'.join(changed)} is only modeled for "
                "perf scenarios; the attack harnesses drive a single "
                "hard-wired controller"
            )
        if not isinstance(self.params, Mapping):
            raise ValueError("params must be a mapping")
        # A covert scenario without background noise is spelled without
        # a workload; any other spelling of it would rerun that
        # simulation under a second scenario ID.
        if self.attack in COVERT_KINDS and "noise_accesses" in self.params:
            if self.workload == NO_WORKLOAD:
                raise ValueError(
                    f"{self.attack} without a workload runs no background "
                    "noise; drop noise_accesses or set workload="
                )
            if int(self.params["noise_accesses"]) <= 0:
                raise ValueError(
                    "noise_accesses must be positive; a covert scenario "
                    "without noise is spelled without a workload"
                )
        return self

    # ------------------------------------------------------------------
    def dram_config(self) -> DramConfig:
        """The concrete device config (preset + this scenario's PRAC
        knobs)."""
        return PRESETS[self.dram].with_prac(nbo=self.nbo, prac_level=self.prac_level)

    def system_config(self) -> SystemConfig:
        """The declarative system assembly for this scenario
        (:class:`repro.config.SystemConfig`)."""
        return SystemConfig(
            sanitize=self.sanitize,
            trace=self.trace,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    # Identity & serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-able; params copied).

        The observer axes (``sanitize``, ``trace``, ``metrics``) are
        emitted only when they differ from their defaults: default
        scenarios keep the exact spec dict (and therefore the exact
        content-hash :attr:`scenario_id`) they had before each axis
        existed, so persisted campaign results stay resumable.
        """
        spec: Dict[str, Any] = {
            "attack": self.attack,
            "mitigation": self.mitigation,
            "workload": self.workload,
            "dram": self.dram,
            "nbo": self.nbo,
            "prac_level": self.prac_level,
            "params": dict(self.params),
        }
        # Default omission delegates to SystemConfig.to_dict so the
        # observer defaults live in exactly one place (repro.config).
        spec.update(self.system_config().to_dict())
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; rejects unknown keys, validates."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ValueError(f"unknown scenario keys: {unknown}; have {sorted(known)}")
        if "attack" not in spec:
            raise ValueError("scenario spec needs at least an 'attack' key")
        kwargs = dict(spec)
        kwargs["params"] = dict(kwargs.get("params") or {})
        return cls(**kwargs).validate()

    @property
    def scenario_id(self) -> str:
        """Stable content hash of the spec (results/cache identity)."""
        return content_key(self.to_dict())[:12]

    @property
    def label(self) -> str:
        """Human-readable one-line identity for tables and logs."""
        parts = [self.attack, self.mitigation]
        if self.workload != NO_WORKLOAD:
            parts.append(self.workload)
        parts.append(f"nbo{self.nbo}")
        if self.prac_level != 1:
            parts.append(f"lvl{self.prac_level}")
        if self.sanitize:
            parts.append("sanitize")
        if self.trace:
            parts.append("trace")
        if self.metrics:
            parts.append("metrics")
        if self.dram != DEFAULT_DRAM:
            parts.append(self.dram)
        return "/".join(parts)
