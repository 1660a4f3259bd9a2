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
    assert a.with_params(x=1).scenario_id != a.scenario_id


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
        Scenario(attack=kind, mitigation="tprac", workload="470.lbm").validate()


# ----------------------------------------------------------------------
# channels axis
# ----------------------------------------------------------------------
def test_channels_axis_flows_into_dram_config_and_label():
    scenario = Scenario(attack="perf", workload="433.milc", channels=4)
    assert scenario.dram_config().organization.channels == 4
    assert "4ch" in scenario.label
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario


def test_single_channel_spec_dict_is_hash_backward_compatible():
    """channels=1 must not appear in to_dict(): persisted campaign
    results from before the multi-channel axis keep their content-hash
    identity (and stay resumable)."""
    scenario = Scenario(attack="selftest", nbo=64)
    assert "channels" not in scenario.to_dict()
    assert scenario.channels == 1
    # and a multi-channel scenario hashes differently
    perf = Scenario(attack="perf", workload="433.milc", nbo=64)
    assert (
        Scenario(
            attack="perf", workload="433.milc", nbo=64, channels=2
        ).scenario_id
        != perf.scenario_id
    )


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_validate_rejects_bad_channel_counts(bad):
    with pytest.raises(ValueError, match="channels"):
        Scenario(attack="perf", workload="433.milc", channels=bad).validate()


def test_multi_channel_is_perf_only():
    """Attack harnesses drive one controller; channels>1 elsewhere
    would mislabel single-channel results as multi-channel."""
    with pytest.raises(ValueError, match="perf"):
        Scenario(attack="covert_activity", channels=2).validate()


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
