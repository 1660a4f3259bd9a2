"""Tests for the declarative SystemConfig.

Covers the contract the campaign/result machinery depends on:
dict/JSON round-trips, default-omission (the default config must
serialize to ``{}``), content-hash stability of pre-refactor scenario
IDs, the mitigation name error, and the removed spellings failing.
"""

import json

import pytest

from repro.analysis.storage import content_key
from repro.campaigns.scenario import Scenario
from repro.config import DEFAULT_SYSTEM, SystemConfig
from repro.dram.config import ddr5_8000b


# ----------------------------------------------------------------------
# Round-trips and default omission
# ----------------------------------------------------------------------
def test_default_config_serializes_to_empty_dict():
    assert SystemConfig().to_dict() == {}
    assert DEFAULT_SYSTEM.is_default()
    assert SystemConfig.from_dict({}) == SystemConfig()


def test_round_trip_preserves_every_field():
    config = SystemConfig(channels=4, sanitize=True, trace=True, metrics=True)
    spec = config.to_dict()
    assert spec == {
        "channels": 4,
        "sanitize": True,
        "trace": True,
        "metrics": True,
    }
    assert SystemConfig.from_dict(spec) == config
    # JSON round-trip: the canonical dict must be JSON-able.
    assert SystemConfig.from_dict(json.loads(json.dumps(spec))) == config


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown system config keys"):
        SystemConfig.from_dict({"sched": "fcfs"})


def test_validate_rejects_unknown_components():
    with pytest.raises(ValueError, match="channels"):
        SystemConfig(channels=0).validate()
    with pytest.raises(ValueError, match="sanitize must be a bool"):
        SystemConfig(sanitize="yes").validate()


# ----------------------------------------------------------------------
# The mitigation name error
# ----------------------------------------------------------------------
def test_registry_errors_share_one_shape():
    # An unknown mitigation names the config field and lists the names
    # that would have worked.
    from repro import mitigations

    with pytest.raises(ValueError) as excinfo:
        mitigations.get("definitely_not_registered")
    message = str(excinfo.value)
    assert "(config field 'mitigation')" in message
    assert "tprac" in message


def test_apply_to_mirrors_the_channels_keyword():
    config = ddr5_8000b()
    assert SystemConfig().apply_to(config) is config
    assert SystemConfig(channels=2).apply_to(config).organization.channels == 2
    # The default never downgrades an explicitly multi-channel device.
    multi = config.with_organization(channels=4)
    assert SystemConfig().apply_to(multi).organization.channels == 4


# ----------------------------------------------------------------------
# Scenario integration: ID stability and the new axes
# ----------------------------------------------------------------------
def test_default_scenario_ids_match_pre_refactor_spec():
    # The canonical spec of a default-system scenario must stay exactly
    # the pre-refactor dict (no system keys), so persisted campaign
    # results remain resumable.
    scenario = Scenario(attack="selftest", mitigation="tprac", nbo=128)
    pre_refactor_spec = {
        "attack": "selftest",
        "mitigation": "tprac",
        "workload": "none",
        "dram": "ddr5_8000b",
        "nbo": 128,
        "prac_level": 1,
        "params": {},
    }
    assert scenario.to_dict() == pre_refactor_spec
    assert scenario.scenario_id == content_key(pre_refactor_spec)[:12]


def test_scenario_axes_round_trip_and_move_the_id():
    base = Scenario(attack="perf", workload="433.milc")
    varied = Scenario(attack="perf", workload="433.milc", channels=2, metrics=True)
    assert varied.scenario_id != base.scenario_id
    assert Scenario.from_dict(varied.to_dict()) == varied
    assert "2ch" in varied.label and "metrics" in varied.label
    system = varied.system_config()
    assert system.channels == 2 and system.metrics


def test_non_perf_scenarios_reject_structural_axes():
    with pytest.raises(ValueError, match="only modeled for"):
        Scenario(attack="selftest", channels=2).validate()
    with pytest.raises(ValueError, match="only modeled for"):
        Scenario(attack="covert_count", trace=True).validate()


def test_removed_cache_and_interconnect_keys_are_rejected():
    # The cores issue straight into the memory system, and every
    # controller is FR-FCFS over MOP with periodic REF and open pages:
    # a spec that still names a removed component fails instead of
    # being ignored.
    for key, value in (
        ("cache", "l1l2"),
        ("interconnect", "crossbar"),
        ("cache_params", {"mshrs": 4}),
        ("scheduler", "fcfs"),
        ("mapping", "linear"),
        ("refresh", "staggered"),
        ("page_policy", "closed"),
        ("scheduler_params", {"cap": 2}),
    ):
        with pytest.raises(ValueError, match="unknown system config keys"):
            SystemConfig.from_dict({key: value})
    for key, value in (("cache", "l1l2"), ("mapping", "linear")):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            Scenario.from_dict({"attack": "perf", "workload": "433.milc", key: value})
