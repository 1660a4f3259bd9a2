"""Scenario campaign engine: declarative attack×defense sweeps.

The paper's claims are statistical — leakage, covert capacity,
mitigation overhead all depend on victim × attacker × mitigation ×
workload × device combinations.  This package turns those combinations
into first-class data:

* :mod:`~repro.campaigns.scenario` — the declarative :class:`Scenario`
  spec with dict/JSON round-trip and stable content-hash IDs;
* :mod:`~repro.campaigns.grid` — axis lists -> concrete scenarios
  (:func:`expand_grid`, :func:`parse_grid_tokens`);
* :mod:`~repro.campaigns.runners` — per-attack-kind trial
  implementations (:func:`run_trial`);
* :mod:`~repro.campaigns.trials` — the batched Monte Carlo engine
  (:func:`run_campaign`): process-pool fan-out, per-trial fault
  isolation, streaming Welford/bootstrap aggregation, resumable
  atomically-flushed results;
* :mod:`~repro.campaigns.builtin` — named grids (``security``,
  ``perf``, ``smoke``) including the paper's security scorecard.

CLI front-end: ``python -m repro.cli campaign --grid
attack=aes_side_channel mitigation=abo_only,tprac nbo=128,256
--trials 5 --jobs 8``.
"""

from repro.campaigns.builtin import (
    BUILTIN_CAMPAIGNS,
    builtin_names,
    builtin_scenarios,
)
from repro.campaigns.grid import expand_grid, parse_grid_tokens
from repro.campaigns.runners import run_trial
from repro.campaigns.scenario import ATTACK_KINDS, Scenario
from repro.campaigns.trials import (
    CampaignResult,
    load_scenario_result,
    run_campaign,
)

__all__ = [
    "ATTACK_KINDS",
    "BUILTIN_CAMPAIGNS",
    "CampaignResult",
    "Scenario",
    "builtin_names",
    "builtin_scenarios",
    "expand_grid",
    "load_scenario_result",
    "parse_grid_tokens",
    "run_campaign",
    "run_trial",
]
