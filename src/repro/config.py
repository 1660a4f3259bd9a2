"""The declarative system configuration: the memory system's knobs as data.

A :class:`SystemConfig` holds what varies between simulated memory
systems: the channel count, and whether the online protocol sanitizer,
the trace recorder and the time-series sampler are attached.  The
controller itself is fixed — FR-FCFS with a row-hit cap over the
Minimalist Open Page mapping, with a REFab every tREFI — and each
:class:`repro.controller.controller.MemoryController` builds those
components directly.  Everything that assembles a system
(:class:`repro.cpu.system.System`,
:class:`repro.controller.memory_system.MemorySystem`,
:func:`repro.experiments.common.build_system`, the campaign engine)
takes one of these instead of scattered keyword arguments.

Like :class:`repro.campaigns.scenario.Scenario`, a ``SystemConfig`` is
plain data: it round-trips through dicts/JSON and crosses process-pool
boundaries by value.  Fields equal to their defaults are **omitted**
from the canonical dict, so the default config serializes to ``{}``
and every pre-existing scenario ID and persisted campaign result is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.dram.config import DramConfig


@dataclass(frozen=True)
class SystemConfig:
    """Declarative assembly spec for one simulated memory system.

    ``channels`` scales the memory system (one controller per
    channel); the three switches attach observers that leave results
    bit-identical.  The default instance is the single-channel system
    every artifact runs.
    """

    channels: int = 1
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
        """Raise ValueError on any unknown/inconsistent value."""
        if not isinstance(self.channels, int) or self.channels < 1:
            raise ValueError("channels must be a positive integer")
        for name in ("sanitize", "trace", "metrics"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool")
        return self

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
        """Canonical plain-dict form (JSON-able).

        Fields equal to their defaults are omitted, so the default
        config is ``{}``.
        """
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != f.default
        }

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "SystemConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys, validates."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ValueError(
                f"unknown system config keys: {unknown}; have {sorted(known)}"
            )
        return cls(**spec).validate()

    def is_default(self) -> bool:
        """Whether this is the default single-channel, unobserved system."""
        return not self.to_dict()


#: The default system: one channel, no sanitizer, trace or sampler.
DEFAULT_SYSTEM = SystemConfig()
