"""The declarative scenario spec: one attack×defense×workload point.

A :class:`Scenario` names everything one Monte Carlo trial needs —
which attacker runs (:mod:`repro.attacks`), which mitigation defends
(by name, :func:`repro.mitigations.get`), which workload mix drives
the memory system (:mod:`repro.workloads.catalog`), which DRAM device
variant hosts it all (:data:`repro.dram.config.PRESETS` plus the PRAC
knobs ``nbo`` / ``prac_level``), and how the memory system is
assembled — ``channels`` and the ``sanitize`` / ``trace`` /
``metrics`` switches project onto a :class:`repro.config.SystemConfig`
(:meth:`Scenario.system_config`).  ``params`` carry per-attack tuning
(symbol counts, encryption budgets, pool sizes).

Scenarios are plain data: they round-trip through dicts/JSON, cross
process-pool boundaries by value, and are identified by a stable
content hash of their spec (:attr:`Scenario.scenario_id`), which is
what makes campaign results cacheable and resumable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
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


@dataclass(frozen=True)
class Scenario:
    """One fully specified victim × attacker × mitigation × device point."""

    attack: str
    mitigation: str = "abo_only"
    workload: str = NO_WORKLOAD
    dram: str = "ddr5_8000b"
    nbo: int = 256
    prac_level: int = 1
    channels: int = 1
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
        if self.dram not in PRESETS:
            raise ValueError(
                f"unknown DRAM preset {self.dram!r}; have {sorted(PRESETS)}"
            )
        if self.nbo <= 0:
            raise ValueError("nbo must be positive")
        if self.prac_level not in (1, 2, 4):
            raise ValueError("prac_level must be 1, 2 or 4")
        # The structural axes delegate to SystemConfig.validate: the
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
        return self

    # ------------------------------------------------------------------
    def dram_config(self) -> DramConfig:
        """The concrete device config (preset + this scenario's PRAC and
        channel knobs)."""
        config = PRESETS[self.dram].with_prac(
            nbo=self.nbo, prac_level=self.prac_level
        )
        # Structural projection (channel count) is owned by SystemConfig
        # so perf and attack trials can never disagree on the device.
        return self.system_config().apply_to(config)

    def system_config(self) -> SystemConfig:
        """The declarative system assembly for this scenario
        (:class:`repro.config.SystemConfig`)."""
        return SystemConfig(
            channels=self.channels,
            sanitize=self.sanitize,
            trace=self.trace,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    # Identity & serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-able; params copied).

        The structural axes (``channels``, ``sanitize``, ``trace``,
        ``metrics``) are emitted only when they differ from their
        defaults: default scenarios keep the exact spec dict (and
        therefore the exact content-hash :attr:`scenario_id`) they had
        before each axis existed, so persisted campaign results stay
        resumable.
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
        # structural defaults live in exactly one place (repro.config).
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
        if self.channels != 1:
            parts.append(f"{self.channels}ch")
        if self.sanitize:
            parts.append("sanitize")
        if self.trace:
            parts.append("trace")
        if self.metrics:
            parts.append("metrics")
        if self.dram != "ddr5_8000b":
            parts.append(self.dram)
        return "/".join(parts)

    def with_params(self, **extra: Any) -> "Scenario":
        """Copy with additional/overridden ``params`` entries."""
        merged = dict(self.params)
        merged.update(extra)
        return replace(self, params=merged)
