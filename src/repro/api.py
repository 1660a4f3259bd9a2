"""The curated public facade of the reproduction.

Everything an experiment, test or downstream script needs to assemble
and sweep simulated systems is re-exported here under one stable,
deliberately small ``__all__``:

* **Assembly** — :class:`SystemConfig` (the declarative spec),
  :func:`build_system` (design point + traces -> ready
  :class:`~repro.cpu.system.System`) and :class:`DesignPoint`.
* **Sweeping** — :class:`Scenario`, :func:`expand_grid`,
  :func:`run_campaign`, :func:`run_trial`.
* **Mitigations** — :data:`MITIGATIONS`, the name -> policy table:
  the single source of truth for what the ``mitigation`` axis can
  spell.

Import from here (``from repro.api import SystemConfig, build_system``)
instead of deep-importing construction internals; the internal module
layout may shift between revisions, this surface does not (see
``docs/api.md`` for the stability note).
"""

from __future__ import annotations

from repro.campaigns.grid import expand_grid, parse_grid_tokens
from repro.campaigns.runners import run_trial
from repro.campaigns.scenario import ATTACK_KINDS, Scenario
from repro.campaigns.trials import run_campaign
from repro.config import DEFAULT_SYSTEM, SystemConfig
from repro.cpu.system import System, SystemResult
from repro.experiments.common import DesignPoint, build_system
from repro.mitigations import MITIGATIONS

__all__ = [
    # assembly
    "SystemConfig",
    "DEFAULT_SYSTEM",
    "DesignPoint",
    "build_system",
    "System",
    "SystemResult",
    # sweeping
    "Scenario",
    "ATTACK_KINDS",
    "expand_grid",
    "parse_grid_tokens",
    "run_trial",
    "run_campaign",
    # mitigations
    "MITIGATIONS",
]
