"""Scenario spec: validation, round-trip, identity."""

import json

import pytest

from repro.campaigns.scenario import ATTACK_KINDS, Scenario

pytestmark = pytest.mark.smoke


def test_round_trips_through_dict_and_json():
    scenario = Scenario(
        attack="covert_count",
        mitigation="tprac",
        workload="433.milc",
        nbo=128,
        prac_level=2,
        params={"symbols": 4},
    )
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario
    assert rebuilt.scenario_id == scenario.scenario_id


def test_scenario_id_is_stable_content_hash():
    a = Scenario(attack="selftest", nbo=64)
    b = Scenario(attack="selftest", nbo=64)
    c = Scenario(attack="selftest", nbo=65)
    assert a.scenario_id == b.scenario_id
    assert a.scenario_id != c.scenario_id
    # params participate in identity: same axes, different tuning differ.
    assert Scenario(attack="selftest", nbo=64, params={"x": 1}).scenario_id != a.scenario_id


@pytest.mark.parametrize(
    "overrides",
    [
        {"attack": "not_an_attack"},
        {"mitigation": "not_a_policy"},
        {"workload": "not_a_workload"},
        {"dram": "not_a_preset"},
        {"nbo": 0},
        {"prac_level": 3},
    ],
)
def test_validate_rejects_unknown_axis_values(overrides):
    spec = Scenario(attack="selftest").to_dict()
    spec.update(overrides)
    with pytest.raises(ValueError):
        Scenario.from_dict(spec)


def test_from_dict_rejects_unknown_keys_and_missing_attack():
    with pytest.raises(ValueError, match="unknown scenario keys"):
        Scenario.from_dict({"attack": "selftest", "victim": "aes"})
    with pytest.raises(ValueError, match="attack"):
        Scenario.from_dict({"mitigation": "tprac"})


def test_dram_config_applies_prac_knobs():
    scenario = Scenario(attack="selftest", nbo=99, prac_level=4)
    config = scenario.dram_config()
    assert config.prac.nbo == 99
    assert config.prac.prac_level == 4


def test_label_is_compact_and_distinguishing():
    plain = Scenario(attack="selftest")
    assert plain.label == "selftest/abo_only/nbo256"
    loaded = Scenario(
        attack="perf", mitigation="tprac", workload="470.lbm",
        nbo=1024, prac_level=2, dram="ddr5_4800",
    )
    for fragment in ("perf", "tprac", "470.lbm", "nbo1024", "lvl2", "ddr5_4800"):
        assert fragment in loaded.label


def test_every_attack_kind_is_a_valid_axis_value():
    for kind in ATTACK_KINDS:
        # The AES and Feinting attacks run no background workload.
        quiet = kind in ("aes_side_channel", "feinting")
        workload = "none" if quiet else "470.lbm"
        Scenario(attack=kind, mitigation="tprac", workload=workload).validate()


# ----------------------------------------------------------------------
# The removed channels axis
# ----------------------------------------------------------------------
def test_single_channel_spec_dict_is_hash_backward_compatible():
    """The memory system is the paper's one channel: ``channels`` never
    appears in a spec dict, so persisted campaign results keep their
    content-hash identity (and stay resumable), and a spec that still
    names it is rejected."""
    scenario = Scenario(attack="selftest", nbo=64)
    assert "channels" not in scenario.to_dict()
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    spec = dict(scenario.to_dict(), channels=2)
    with pytest.raises(ValueError, match="unknown scenario keys"):
        Scenario.from_dict(spec)


def test_sanitize_axis_projects_and_keeps_hashes_stable():
    """The sanitize axis flows to SystemConfig, is omitted from the
    spec dict at its default, and is restricted to perf scenarios like
    every other non-default structural axis."""
    scenario = Scenario(attack="perf", workload="433.milc", sanitize=True)
    assert scenario.system_config().sanitize is True
    assert "sanitize" in scenario.label
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario

    default = Scenario(attack="perf", workload="433.milc")
    assert "sanitize" not in default.to_dict()
    assert default.scenario_id != scenario.scenario_id
    with pytest.raises(ValueError, match="perf"):
        Scenario(attack="covert_activity", sanitize=True).validate()
