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
            assert mitigations.policy_factory(name, device).tb_window == window
    acb = mitigations.policy_factory("abo_acb", config)
    assert acb.bat == AcbRfmPolicy.bat_for_threshold(512)
    for name in mitigations.available():
        assert mitigations.policy_factory(name, config).name == name
    with pytest.raises(ValueError, match="qprac"):
        mitigations.policy_factory("bogus", config)


def test_policy_factory_solves_once_per_policy(monkeypatch):
    # The solve is looked up on its module at call time, so a wrapper
    # installed there (as the benchmark's tracer does) sees it.
    from repro.analysis import tb_window

    calls = []
    solve = tb_window.required_tb_window

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(tb_window, "required_tb_window", counting_solve)
    first = mitigations.policy_factory("tprac", ddr5_8000b())
    second = mitigations.policy_factory("tprac", ddr5_8000b())
    assert len(calls) == 2
    assert first is not second
    assert first.tb_window == second.tb_window
