"""Tests for the declarative SystemConfig and the component registries.

Covers the contract the campaign/result machinery depends on:
dict/JSON round-trips, default-omission (the default config must
serialize to ``{}``), content-hash stability of pre-refactor scenario
IDs, registry error-message parity, and component construction.
"""

import json

import pytest

from repro.analysis.storage import content_key
from repro.campaigns.scenario import Scenario
from repro.config import DEFAULT_SYSTEM, SystemConfig
from repro.controller.scheduler import (
    FcfsScheduler,
    FrFcfsCapScheduler,
    FrFcfsScheduler,
)
from repro.dram.address import LinearMapping, MopMapping
from repro.dram.config import ddr5_8000b
from repro.dram.refresh import RefreshScheduler, StaggeredRefreshScheduler


# ----------------------------------------------------------------------
# Round-trips and default omission
# ----------------------------------------------------------------------
def test_default_config_serializes_to_empty_dict():
    assert SystemConfig().to_dict() == {}
    assert DEFAULT_SYSTEM.is_default()
    assert SystemConfig.from_dict({}) == SystemConfig()


def test_round_trip_preserves_every_field():
    config = SystemConfig(
        channels=4,
        scheduler="fr_fcfs_cap",
        mapping="linear",
        refresh="staggered",
        page_policy="closed",
        scheduler_params={"batch": 4},
    )
    spec = config.to_dict()
    assert spec == {
        "channels": 4,
        "scheduler": "fr_fcfs_cap",
        "mapping": "linear",
        "refresh": "staggered",
        "page_policy": "closed",
        "scheduler_params": {"batch": 4},
    }
    assert SystemConfig.from_dict(spec) == config
    # JSON round-trip: the canonical dict must be JSON-able.
    assert SystemConfig.from_dict(json.loads(json.dumps(spec))) == config


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown system config keys"):
        SystemConfig.from_dict({"sched": "fcfs"})


def test_content_hash_is_stable_and_default_insensitive():
    # Spelling a field at its default must not move the hash: a config
    # built with explicit defaults hashes like the bare default.
    assert (
        SystemConfig(scheduler="fr_fcfs").content_hash
        == SystemConfig().content_hash
    )
    assert (
        SystemConfig(scheduler="fcfs").content_hash
        != SystemConfig().content_hash
    )
    # The hash is the content key of the canonical dict — process- and
    # interpreter-stable, like Scenario.scenario_id.
    assert SystemConfig().content_hash == content_key({})[:12]


def test_validate_rejects_unknown_components():
    for field, kwargs in (
        ("scheduler", {"scheduler": "round_robin"}),
        ("mapping", {"mapping": "hashed"}),
        ("refresh", {"refresh": "adaptive"}),
        ("page_policy", {"page_policy": "lazy"}),
    ):
        with pytest.raises(ValueError, match=f"'{field}'"):
            SystemConfig(**kwargs).validate()
    with pytest.raises(ValueError, match="channels"):
        SystemConfig(channels=0).validate()


# ----------------------------------------------------------------------
# Registry error-message parity (scheduler/mapping/refresh/mitigation)
# ----------------------------------------------------------------------
def test_registry_errors_share_one_shape():
    from repro import mitigations
    from repro.controller.scheduler import SCHEDULERS
    from repro.dram.address import MAPPINGS
    from repro.dram.refresh import REFRESH_POLICIES

    cases = [
        (SCHEDULERS, "scheduler", "fr_fcfs"),
        (MAPPINGS, "mapping", "mop"),
        (REFRESH_POLICIES, "refresh", "periodic"),
        (mitigations.MITIGATIONS, "mitigation", "tprac"),
    ]
    for registry, field, known in cases:
        with pytest.raises(ValueError) as excinfo:
            registry.get("definitely_not_registered")
        message = str(excinfo.value)
        assert f"(config field {field!r})" in message
        assert known in message  # lists the names that would have worked


def test_registry_rejects_double_registration():
    from repro.controller.scheduler import SCHEDULERS

    with pytest.raises(ValueError, match="already registered"):
        SCHEDULERS.register("fr_fcfs", FrFcfsScheduler)


# ----------------------------------------------------------------------
# Component construction
# ----------------------------------------------------------------------
def test_component_factories_build_the_named_components():
    org = ddr5_8000b().organization
    assert isinstance(SystemConfig().make_mapping(org), MopMapping)
    assert isinstance(
        SystemConfig(mapping="linear").make_mapping(org), LinearMapping
    )
    assert isinstance(SystemConfig().make_scheduler(4), FrFcfsScheduler)
    assert isinstance(
        SystemConfig(scheduler="fcfs").make_scheduler(4), FcfsScheduler
    )
    capped = SystemConfig(
        scheduler="fr_fcfs_cap", scheduler_params={"batch": 3}
    ).make_scheduler(4)
    assert isinstance(capped, FrFcfsCapScheduler)
    assert capped.batch == 3
    # The queues are unbounded: there is no depth knob to accept.
    with pytest.raises(TypeError, match="queue_depth"):
        SystemConfig(
            scheduler="fcfs", scheduler_params={"queue_depth": 8}
        ).make_scheduler(4)


def test_refresh_factory_and_staggered_phase():
    from repro.core.engine import Engine
    from repro.dram.rank import Channel

    config = ddr5_8000b()
    refresh = SystemConfig().make_refresh(Engine(), Channel(config), config)
    assert type(refresh) is RefreshScheduler
    multi = config.with_organization(channels=4)
    staggered = SystemConfig(channels=4, refresh="staggered").make_refresh(
        Engine(), Channel(multi, channel_id=2), multi
    )
    assert isinstance(staggered, StaggeredRefreshScheduler)


def test_staggered_refresh_matches_periodic_on_channel_zero():
    from repro.core.engine import Engine
    from repro.dram.rank import Channel

    config = ddr5_8000b()
    times = {}
    for name in ("periodic", "staggered"):
        engine = Engine()
        refresh = SystemConfig(refresh=name).make_refresh(
            engine, Channel(config), config
        )
        refresh.start()
        engine.run(until=5 * config.timing.tREFI)
        times[name] = refresh.refresh_count
    assert times["periodic"] == times["staggered"]


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
    # the pre-refactor dict (no scheduler/mapping/refresh keys), so
    # persisted campaign results remain resumable.
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
    varied = Scenario(
        attack="perf", workload="433.milc", scheduler="fcfs", mapping="linear"
    )
    assert varied.scenario_id != base.scenario_id
    assert Scenario.from_dict(varied.to_dict()) == varied
    assert "fcfs" in varied.label and "linear" in varied.label
    system = varied.system_config()
    assert system.scheduler == "fcfs" and system.mapping == "linear"


def test_non_perf_scenarios_reject_structural_axes():
    with pytest.raises(ValueError, match="only modeled for"):
        Scenario(attack="selftest", scheduler="fcfs").validate()
    with pytest.raises(ValueError, match="only modeled for"):
        Scenario(attack="covert_count", mapping="linear").validate()


# ----------------------------------------------------------------------
# The registry-backed component axes
# ----------------------------------------------------------------------
def test_component_registries_cover_every_axis():
    from repro.config import COMPONENT_AXES, component_registries

    registries = component_registries()
    assert set(registries) == set(COMPONENT_AXES)
    for axis, registry in registries.items():
        assert getattr(SystemConfig(), axis) in registry.available()


def test_removed_cache_and_interconnect_keys_are_rejected():
    # The cores issue straight into the memory system: a spec that
    # still names a cache front end fails instead of being ignored.
    for key, value in (
        ("cache", "l1l2"),
        ("interconnect", "crossbar"),
        ("cache_params", {"mshrs": 4}),
    ):
        with pytest.raises(ValueError, match="unknown system config keys"):
            SystemConfig.from_dict({key: value})
    with pytest.raises(ValueError, match="unknown scenario keys"):
        Scenario.from_dict({"attack": "perf", "workload": "433.milc", "cache": "l1l2"})
