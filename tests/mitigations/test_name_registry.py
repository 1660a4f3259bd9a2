"""The string -> factory mitigation registry."""

import pytest

from repro import mitigations
from repro.dram.config import ddr5_8000b

pytestmark = pytest.mark.smoke


def test_available_lists_every_policy():
    assert mitigations.available() == sorted(
        ["none", "abo_only", "abo_acb", "tprac", "obfuscation", "rfmpb", "qprac"]
    )


def test_get_returns_factories_matching_policy_names():
    for name in mitigations.available():
        assert mitigations.get(name).name == name


def test_get_unknown_name_lists_alternatives():
    with pytest.raises(ValueError, match="qprac"):
        mitigations.get("prac_plus_plus")


def test_make_policy_instantiates_with_kwargs():
    policy = mitigations.make_policy("tprac", tb_window=5000.0)
    assert policy.name == "tprac"
    assert mitigations.make_policy("none").name == "none"
    with pytest.raises(ValueError):
        mitigations.make_policy("bogus")


def test_policy_factory_derives_parameters_from_the_device():
    from repro.analysis.tb_window import required_tb_window
    from repro.mitigations.acb_rfm import AcbRfmPolicy

    config = ddr5_8000b().with_prac(nbo=512)
    for reset in (True, False):
        device = config.with_prac(reset_on_refresh=reset)
        window = required_tb_window(device, 512, with_reset=reset)
        for name in ("tprac", "rfmpb"):
            assert mitigations.policy_factory(name, device)().tb_window == window
    acb = mitigations.policy_factory("abo_acb", config)()
    assert acb.bat == AcbRfmPolicy.bat_for_threshold(512)
    for name in mitigations.available():
        assert mitigations.policy_factory(name, config)().name == name
    with pytest.raises(ValueError, match="qprac"):
        mitigations.policy_factory("bogus", config)


def test_policy_factory_solves_once_and_builds_per_channel(monkeypatch):
    # The solve is looked up on its module at call time, so a wrapper
    # installed there (as the benchmark's tracer does) sees it.
    from repro.analysis import tb_window

    calls = []
    solve = tb_window.required_tb_window

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(tb_window, "required_tb_window", counting_solve)
    make = mitigations.policy_factory("tprac", ddr5_8000b())
    first, second = make(), make(channel_id=1)
    assert len(calls) == 1
    assert first is not second
    assert first.tb_window == second.tb_window


def test_policy_factory_seeds_obfuscation_per_channel():
    from repro.mitigations.obfuscation import ObfuscationPolicy

    def draws(policy):
        return [policy._rng.random() for _ in range(4)]

    make = mitigations.policy_factory("obfuscation", ddr5_8000b(), seed=7)
    assert draws(make()) == draws(ObfuscationPolicy(seed=7))
    assert draws(make(channel_id=2)) == draws(ObfuscationPolicy(seed=7 + 2 * 100_003))
