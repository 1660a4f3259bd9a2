"""The multi-channel memory system facade.

A :class:`MemorySystem` owns one :class:`MemoryController` per channel
of the configured :class:`~repro.dram.config.DramOrganization` and
routes each request to its channel by physical address (channel bits
sit directly above the cache-line offset in the MOP mapping, so
consecutive cache lines stripe across channels).  Everything stateful
stays strictly per-channel — mitigation policy instance, PRAC
counters, ABO protocol, refresh machinery, data bus and blocking
window — exactly as in hardware, where channels share nothing but the
clock.

Single-channel fast path
------------------------
With ``channels == 1`` the facade degenerates to a zero-overhead
alias: ``enqueue`` *is* the sole controller's bound ``enqueue`` and
``stats`` returns that controller's live :class:`ControllerStats`
object, so single-channel runs are bit-for-bit identical to driving a
bare :class:`MemoryController` (the pre-multi-channel behaviour).

Statistics come in two views: :attr:`per_channel_stats` (the live
per-controller objects) and :attr:`stats` (a merged
:class:`ControllerStats` — see :meth:`ControllerStats.merged`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import DEFAULT_SYSTEM, SystemConfig
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.controller.stats import ControllerStats
from repro.core.engine import Engine
from repro.dram.address import MopMapping
from repro.dram.config import DramConfig
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.trace import TraceRecorder


class MemorySystem:
    """N per-channel memory controllers behind one ``enqueue`` front.

    Parameters mirror :class:`MemoryController` (every channel refreshes
    and decodes with the facade's own mapping), except for policy
    wiring: a mitigation policy instance attaches to exactly one
    controller, so multi-channel systems take ``policy_factory`` (one
    fresh instance per channel) while single-channel systems may keep
    passing a ready-made ``policy`` object.  A factory is called as
    ``policy_factory(channel_id=n)`` once per channel — the hook for
    per-channel seeding of stochastic policies (see
    :func:`repro.mitigations.policy_factory`).
    """

    def __init__(
        self,
        engine: Engine,
        config: DramConfig,
        policy: Optional[object] = None,
        policy_factory: Optional[Callable[..., object]] = None,
        enable_abo: bool = True,
        tref_per_trefi: float = 0.0,
        system: Optional[SystemConfig] = None,
    ) -> None:
        system = (system if system is not None else DEFAULT_SYSTEM).validate()
        config = system.apply_to(config).validate()
        channels = config.organization.channels
        if policy is not None and policy_factory is not None:
            raise ValueError("pass either policy or policy_factory, not both")
        if channels > 1 and policy is not None:
            raise ValueError(
                "a policy instance attaches to one controller; "
                f"multi-channel systems ({channels} channels) need "
                "policy_factory so every channel gets its own instance"
            )
        self.engine = engine
        self.config = config
        self.system = system
        self.channels = channels
        #: the shared address mapping: controllers decode with it and
        #: the facade routes with its ``channel_of`` — one source of
        #: truth for where the channel bits live.
        self.mapping = MopMapping(config.organization)
        #: shared trace recorder (SystemConfig(trace=True)): one
        #: recorder spans all channels, so exported traces show the
        #: whole system.
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(config) if system.trace else None
        )
        # Channel order is construction order: each controller arms its
        # refresh timers at construction, so event seq numbers (and
        # with them the whole event schedule) are deterministic.
        self.controllers: List[MemoryController] = [
            MemoryController(
                engine,
                config,
                policy=(
                    policy if policy_factory is None
                    else policy_factory(channel_id=channel_id)
                ),
                system=system,
                mapping=self.mapping,
                enable_abo=enable_abo,
                tref_per_trefi=tref_per_trefi,
                channel_id=channel_id,
                recorder=self.recorder,
            )
            for channel_id in range(channels)
        ]
        #: periodic time-series sampler; armed only with metrics on, so
        #: the metrics-off event schedule is untouched.
        self.sampler: Optional[TimeSeriesSampler] = None
        if system.metrics:
            self.sampler = TimeSeriesSampler(self)
            self.sampler.start()
        if channels == 1:
            # Zero-overhead single-channel path: enqueue IS the bound
            # method of the only controller.
            self.enqueue = self.controllers[0].enqueue

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def enqueue(self, request: MemRequest) -> None:  # overwritten when channels==1
        """Route a request to its channel's controller by address."""
        self.controllers[self.mapping.channel_of(request.phys_addr)].enqueue(
            request
        )

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def per_channel_stats(self) -> List[ControllerStats]:
        """Live per-channel statistics objects, channel order."""
        return [controller.stats for controller in self.controllers]

    @property
    def stats(self) -> ControllerStats:
        """Merged statistics across channels.

        With one channel this is the controller's live stats object;
        with several it is a merged **snapshot** (recomputed per
        access) — use :attr:`per_channel_stats` for per-channel detail.
        """
        if self.channels == 1:
            return self.controllers[0].stats
        return ControllerStats.merged(self.per_channel_stats)

    @property
    def refresh_count(self) -> int:
        """Total REFab commands issued across all channels."""
        return sum(c.refresh.refresh_count for c in self.controllers)
