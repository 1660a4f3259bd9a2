"""The declarative system configuration: every structural controller
knob as data.

A :class:`SystemConfig` names the pluggable components one simulated
memory system is assembled from — how many channels, which request
scheduler (:data:`repro.controller.scheduler.SCHEDULERS`), which
physical-address mapping (:data:`repro.dram.address.MAPPINGS`), which
refresh policy (:data:`repro.dram.refresh.REFRESH_POLICIES`) and which
page policy — plus per-component parameter dicts.  Everything that
assembles a system (:class:`repro.cpu.system.System`,
:class:`repro.controller.memory_system.MemorySystem`,
:func:`repro.experiments.common.build_system`, the campaign engine,
the bench workloads, the CLI) takes one of these instead of scattered
keyword arguments, so a new registered component is immediately
sweepable everywhere.

Like :class:`repro.campaigns.scenario.Scenario`, a ``SystemConfig`` is
plain data: it round-trips through dicts/JSON, crosses process-pool
boundaries by value, and has a stable content hash.  Fields equal to
their defaults are **omitted** from the canonical dict, so the default
config serializes to ``{}`` and every pre-existing scenario ID and
persisted campaign result is unchanged.
"""

from __future__ import annotations

from dataclasses import MISSING as _MISSING
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Dict, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.scheduler import BankQueueScheduler
    from repro.core.engine import Engine
    from repro.dram.address import AddressMapping
    from repro.dram.config import DramConfig, DramOrganization
    from repro.dram.rank import Channel
    from repro.dram.refresh import RefreshScheduler
    from repro.registry import Registry

#: The field defaults, used for default-omission in :meth:`to_dict`.
DEFAULT_SCHEDULER = "fr_fcfs"
DEFAULT_MAPPING = "mop"
DEFAULT_REFRESH = "periodic"
DEFAULT_PAGE_POLICY = "open"

#: Every registry-backed component axis, in declaration order.  Each
#: axis ``a`` is a pair of fields — ``a`` (the registered name) and
#: ``a_params`` (its keyword arguments) — and one registry; the generic
#: :meth:`SystemConfig.validate` / :meth:`SystemConfig.from_dict` paths
#: and the CLI's structural flags are driven by this table, so a future
#: axis is one tuple entry plus its two fields, not another
#: hand-written clause.
COMPONENT_AXES = ("scheduler", "mapping", "refresh")


def component_registries() -> Dict[str, "Registry"]:
    """Axis name -> registry for every entry of :data:`COMPONENT_AXES`.

    Resolved late on every call: the registries live next to their
    components and the component modules import this one.
    """
    from repro.controller.scheduler import SCHEDULERS
    from repro.dram.address import MAPPINGS
    from repro.dram.refresh import REFRESH_POLICIES

    return {
        "scheduler": SCHEDULERS,
        "mapping": MAPPINGS,
        "refresh": REFRESH_POLICIES,
    }


@dataclass(frozen=True)
class SystemConfig:
    """Declarative assembly spec for one simulated memory system.

    ``channels`` scales the memory system (one controller per
    channel); the name fields select registered components and the
    ``*_params`` mappings carry component-specific knobs (``cap`` /
    ``batch`` for schedulers, ``mop_width`` for the MOP mapping).  The
    default instance reproduces the historical hard-wired system
    bit-for-bit.
    """

    channels: int = 1
    scheduler: str = DEFAULT_SCHEDULER
    mapping: str = DEFAULT_MAPPING
    refresh: str = DEFAULT_REFRESH
    page_policy: str = DEFAULT_PAGE_POLICY
    scheduler_params: Mapping[str, Any] = field(default_factory=dict)
    mapping_params: Mapping[str, Any] = field(default_factory=dict)
    refresh_params: Mapping[str, Any] = field(default_factory=dict)
    #: Attach the online DRAM protocol sanitizer
    #: (:class:`repro.dram.sanitizer.ProtocolChecker`) to every
    #: controller.  Purely observational: results are bit-identical,
    #: but any protocol violation raises instead of going unnoticed.
    sanitize: bool = False
    #: Attach the structured trace recorder
    #: (:class:`repro.obs.trace.TraceRecorder`): the served command
    #: stream, REF/RFM windows, PRAC counter updates and ABO alert
    #: lifecycles become typed events exportable as JSONL / Chrome
    #: trace_event.  Observational like ``sanitize``: results are
    #: bit-identical, the off path is untouched.
    trace: bool = False
    #: Attach the periodic time-series sampler
    #: (:class:`repro.obs.sampler.TimeSeriesSampler`): windowed
    #: queue-depth / row-hit-rate / bus-occupancy / alert-rate series
    #: over sim-time intervals.  Simulation results are unchanged (the
    #: sampler only reads state); the off path schedules no sampling
    #: events.  The run's counts are always kept and need no switch.
    metrics: bool = False

    # ------------------------------------------------------------------
    def validate(self) -> "SystemConfig":
        """Raise ValueError on any unknown/inconsistent value.

        Component axes are checked generically against
        :data:`COMPONENT_AXES`: every name goes through its registry
        (so the error lists the spellings that would have worked and
        the field that was wrong) and every params field must be a
        mapping.
        """
        if not isinstance(self.channels, int) or self.channels < 1:
            raise ValueError("channels must be a positive integer")
        registries = component_registries()
        for axis in COMPONENT_AXES:
            registries[axis].get(getattr(self, axis))
            if not isinstance(getattr(self, axis + "_params"), Mapping):
                raise ValueError(f"{axis}_params must be a mapping")
        if self.page_policy not in ("open", "closed"):
            raise ValueError(
                "unknown page policy "
                f"{self.page_policy!r} (config field 'page_policy'); "
                "have ['closed', 'open']"
            )
        for name in ("sanitize", "trace", "metrics"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool")
        return self

    # ------------------------------------------------------------------
    # Component construction
    # ------------------------------------------------------------------
    def make_mapping(self, org: "DramOrganization") -> "AddressMapping":
        """Build this config's address mapping for ``org``."""
        from repro.dram.address import MAPPINGS

        return MAPPINGS.make(self.mapping, org, **dict(self.mapping_params))

    def make_scheduler(self, num_banks: int) -> "BankQueueScheduler":
        """Build this config's request scheduler for one channel."""
        from repro.controller.scheduler import SCHEDULERS

        return SCHEDULERS.make(
            self.scheduler, num_banks=num_banks, **dict(self.scheduler_params)
        )

    def make_refresh(
        self,
        engine: "Engine",
        channel: "Channel",
        config: "DramConfig",
        tref_per_trefi: float = 0.0,
    ) -> "RefreshScheduler":
        """Build this config's refresh scheduler for one channel."""
        from repro.dram.refresh import REFRESH_POLICIES

        return REFRESH_POLICIES.make(
            self.refresh,
            engine,
            channel,
            config,
            tref_per_trefi=tref_per_trefi,
            **dict(self.refresh_params),
        )

    def apply_to(self, dram_config: "DramConfig") -> "DramConfig":
        """Project this config onto a device config (channel count).

        Mirrors the historical ``channels=N`` keyword: a non-default
        ``channels`` overrides the device organization; the default of
        1 leaves a caller-supplied multi-channel organization alone.
        """
        if self.channels != 1 and (
            self.channels != dram_config.organization.channels
        ):
            dram_config = dram_config.with_organization(channels=self.channels)
        return dram_config

    # ------------------------------------------------------------------
    # Identity & serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (JSON-able; params copied).

        Fields equal to their defaults are omitted, so the default
        config is ``{}`` and adding a future axis never moves the hash
        of configs that do not use it.
        """
        spec: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            default = f.default if f.default_factory is _MISSING else f.default_factory()  # type: ignore[misc]
            if f.name.endswith("_params"):
                value = dict(value)
            if value != default:
                spec[f.name] = value
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "SystemConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys, validates."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ValueError(
                f"unknown system config keys: {unknown}; have {sorted(known)}"
            )
        kwargs = dict(spec)
        for axis in COMPONENT_AXES:
            name = axis + "_params"
            if name in kwargs:
                kwargs[name] = dict(kwargs[name] or {})
        return cls(**kwargs).validate()

    @property
    def content_hash(self) -> str:
        """Stable content hash of the canonical spec dict."""
        from repro.analysis.storage import content_key

        return content_key(self.to_dict())[:12]

    def is_default(self) -> bool:
        """Whether this is the (historically hard-wired) default system."""
        return not self.to_dict()

    def replace(self, **overrides: Any) -> "SystemConfig":
        """Copy with the given fields overridden."""
        return replace(self, **overrides)


#: The default system — one channel, FR-FCFS, MOP, periodic refresh,
#: open page — i.e. exactly the pre-refactor hard-wired assembly.
DEFAULT_SYSTEM = SystemConfig()
