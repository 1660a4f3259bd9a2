"""Grid expansion: axis lists -> concrete scenario instances.

A *grid* is a mapping of axis name to the list of values to sweep,
e.g. ``{"attack": ["aes_side_channel"], "mitigation": ["abo_only",
"tprac"], "nbo": [128, 256]}``.  :func:`expand_grid` takes the
cartesian product and returns validated :class:`Scenario` instances in
deterministic order.  Axis names that are trial params
(:data:`repro.campaigns.runners.TRIAL_PARAMS`) become per-scenario
``params`` entries, so attack tuning knobs (``symbols``,
``encryptions``, ``crash_seeds``…) sweep exactly like first-class axes;
any other name that is not a scenario field raises, and the names of
removed axes (:data:`REMOVED_AXES`) say why they are gone.

:func:`parse_grid_tokens` turns CLI tokens (``nbo=128,256``) into such
a mapping, coercing ints/floats/bools while leaving names as strings.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Sequence

from repro.campaigns.runners import TRIAL_PARAMS
from repro.campaigns.scenario import Scenario

#: First-class scenario fields an axis can address directly.
SCENARIO_AXES = (
    "attack", "mitigation", "workload", "dram", "nbo", "prac_level",
    "sanitize", "trace", "metrics",
)

#: Axes earlier revisions accepted -> why they are gone.  Like any
#: unknown axis they (and their ``<axis>_params`` spelling) fail at
#: expansion, but with this reason instead of the generic message.
REMOVED_AXES = {
    "engine": "every system runs on the one event kernel",
    "cache": "cores issue straight into the memory system",
    "interconnect": "cores issue straight into the memory system",
    "scheduler": "every controller schedules FR-FCFS with a row-hit cap",
    "mapping": "every controller decodes with the MOP mapping",
    "refresh": "every controller issues a REFab every tREFI",
    "channels": "the memory system is the paper's one DDR5 channel",
}


def expand_grid(axes: Mapping[str, Sequence[Any]]) -> List[Scenario]:
    """Cartesian-product the axes into validated scenarios.

    Order is deterministic: axes iterate in their given (insertion)
    order, values in their given order — so a grid expands to the same
    scenario list on every run, which keeps content-hash IDs stable and
    diffs readable.  An axis that is neither a scenario field nor a
    trial param raises, as do duplicate scenarios (identical specs
    reached by different axis spellings).
    """
    if "attack" not in axes:
        raise ValueError("a grid needs an 'attack' axis")
    for name in axes:
        reason = REMOVED_AXES.get(name.removesuffix("_params"))
        if reason is not None:
            raise ValueError(f"grid axis {name!r} was removed: {reason}")
        if name not in SCENARIO_AXES and name not in TRIAL_PARAMS:
            raise ValueError(
                f"unknown grid axis {name!r}; scenario fields are "
                f"{list(SCENARIO_AXES)}, trial params are "
                f"{sorted(TRIAL_PARAMS)}"
            )
    names = list(axes)
    value_lists = []
    for name in names:
        values = list(axes[name])
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        value_lists.append(values)

    scenarios: List[Scenario] = []
    seen: Dict[str, str] = {}
    for combo in itertools.product(*value_lists):
        point = dict(zip(names, combo))
        spec = {k: v for k, v in point.items() if k in SCENARIO_AXES}
        spec["params"] = {k: v for k, v in point.items() if k not in SCENARIO_AXES}
        scenario = Scenario.from_dict(spec)
        sid = scenario.scenario_id
        if sid in seen:
            raise ValueError(
                f"duplicate scenario {scenario.label!r} (id {sid}) in grid"
            )
        seen[sid] = scenario.label
        scenarios.append(scenario)
    return scenarios


def _coerce(token: str) -> Any:
    """CLI string -> int/float/bool where it parses, else the string."""
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def parse_grid_tokens(tokens: Sequence[str]) -> Dict[str, List[Any]]:
    """``["nbo=128,256", "mitigation=tprac"]`` -> axis mapping.

    Each token is ``axis=v1,v2,...``; values are type-coerced
    individually.  Repeating an axis raises (silently keeping the last
    spelling would make sweeps lie about their size).
    """
    axes: Dict[str, List[Any]] = {}
    for token in tokens:
        name, eq, rest = token.partition("=")
        name = name.strip()
        if not eq or not name or not rest.strip():
            raise ValueError(
                f"bad grid token {token!r}; expected axis=value[,value...]"
            )
        if name in axes:
            raise ValueError(f"axis {name!r} given twice")
        axes[name] = [_coerce(part) for part in rest.split(",") if part != ""]
        if not axes[name]:
            raise ValueError(f"axis {name!r} has no values")
    return axes
