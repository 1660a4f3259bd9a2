"""Grid expansion and CLI token parsing."""

import pytest

from repro.campaigns.builtin import builtin_names, builtin_scenarios
from repro.campaigns.grid import expand_grid, parse_grid_tokens

pytestmark = pytest.mark.smoke


def test_expand_grid_takes_cartesian_product_in_axis_order():
    scenarios = expand_grid(
        {
            "attack": ["selftest"],
            "mitigation": ["abo_only", "tprac"],
            "nbo": [64, 128],
        }
    )
    assert len(scenarios) == 4
    assert [(s.mitigation, s.nbo) for s in scenarios] == [
        ("abo_only", 64), ("abo_only", 128), ("tprac", 64), ("tprac", 128),
    ]


def test_expansion_order_is_deterministic_and_ids_stable():
    axes = {"attack": ["selftest"], "nbo": [64, 128, 256]}
    first = [s.scenario_id for s in expand_grid(axes)]
    second = [s.scenario_id for s in expand_grid(axes)]
    assert first == second


def test_unknown_axes_become_params():
    (scenario,) = expand_grid(
        {"attack": ["selftest"], "crash_seeds": ["1+2"], "symbols": [6]}
    )
    assert scenario.params == {"crash_seeds": "1+2", "symbols": 6}


@pytest.mark.parametrize("suffix", ["", "_params"], ids=["axis", "params"])
def test_removed_engine_axis_fails_fast(suffix):
    # Unknown axes become params, but no runner reads a removed axis
    # there: the sweep would silently repeat one simulation under new
    # scenario IDs.  Name the axis and refuse instead.
    name = "engine" + suffix
    with pytest.raises(ValueError, match=f"grid axis '{name}' was removed"):
        expand_grid({"attack": ["perf"], name: ["event", "batched"]})


def test_grid_requires_attack_axis_and_nonempty_values():
    with pytest.raises(ValueError, match="attack"):
        expand_grid({"mitigation": ["tprac"]})
    with pytest.raises(ValueError, match="no values"):
        expand_grid({"attack": []})


def test_duplicate_scenarios_raise():
    with pytest.raises(ValueError, match="duplicate"):
        expand_grid({"attack": ["selftest", "selftest"]})


def test_invalid_axis_value_raises_at_expansion():
    with pytest.raises(ValueError, match="mitigation"):
        expand_grid({"attack": ["selftest"], "mitigation": ["bogus"]})


def test_parse_grid_tokens_coerces_types():
    axes = parse_grid_tokens(
        ["nbo=64,128", "mitigation=tprac", "inject=true,false", "rate=0.5"]
    )
    assert axes == {
        "nbo": [64, 128],
        "mitigation": ["tprac"],
        "inject": [True, False],
        "rate": [0.5],
    }


@pytest.mark.parametrize("token", ["nbo", "=64", "nbo=", ""])
def test_parse_grid_tokens_rejects_malformed(token):
    with pytest.raises(ValueError):
        parse_grid_tokens([token])


def test_parse_grid_tokens_rejects_repeated_axis():
    with pytest.raises(ValueError, match="twice"):
        parse_grid_tokens(["nbo=64", "nbo=128"])


def test_builtin_campaigns_expand():
    assert builtin_names() == ["perf", "security", "smoke"]
    security = builtin_scenarios("security")
    assert len(security) >= 12
    assert {s.attack for s in security} == {
        "covert_activity", "covert_count", "aes_side_channel",
    }
    assert {s.mitigation for s in security} == {"abo_only", "tprac"}
    assert len(builtin_scenarios("smoke")) >= 12
    with pytest.raises(ValueError, match="unknown campaign"):
        builtin_scenarios("bogus")
