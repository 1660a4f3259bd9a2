"""Grid expansion and CLI token parsing."""

import re
from pathlib import Path

import pytest

from repro.campaigns import runners
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


def test_misspelled_axis_fails_at_expansion():
    # As a param no trial reads, "mitigations" would run two copies of
    # the default abo_only scenario under different IDs.
    with pytest.raises(ValueError) as excinfo:
        expand_grid({
            "attack": ["perf"],
            "workload": ["433.milc"],
            "mitigations": ["tprac", "qprac"],
        })
    message = str(excinfo.value)
    assert "unknown grid axis 'mitigations'" in message
    assert "'mitigation'" in message          # the scenario fields...
    assert "'requests_per_core'" in message   # ...and the trial params


def test_perf_without_workload_fails_at_expansion():
    with pytest.raises(ValueError, match="workload"):
        expand_grid({"attack": ["perf"]})


def test_trial_params_match_what_the_runners_read():
    # Source audit: every params.get("<name>") in runners.py is declared
    # in TRIAL_PARAMS, and nothing is declared that no trial reads.
    source = Path(runners.__file__).read_text()
    read = set(re.findall(r"params\.get\(\s*\"(\w+)\"", source))
    assert read == set(runners.TRIAL_PARAMS)


@pytest.mark.parametrize("suffix", ["", "_params"], ids=["axis", "params"])
def test_removed_engine_axis_fails_fast(suffix):
    # A removed axis fails like any unknown one, but says why.
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
