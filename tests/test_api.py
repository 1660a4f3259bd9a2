"""The public facade (``repro.api``) stays importable and complete."""

import repro.api as api


def test_every_exported_name_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_facade_assembles_a_running_system():
    from repro.experiments.common import homogeneous_traces

    traces = homogeneous_traces("433.milc", cores=1, num_accesses=200, seed=0)
    system = api.build_system(
        api.DesignPoint(design="tprac", nrh=1024),
        traces,
        system=api.SystemConfig(sanitize=True),
    )
    result = system.run()
    assert isinstance(result, api.SystemResult)
    assert result.dram_requests == 200


def test_facade_expands_the_new_axes():
    scenarios = api.expand_grid(
        {
            "attack": ["perf"],
            "workload": ["433.milc"],
            "mitigation": ["abo_only", "tprac"],
            "metrics": [True],
        }
    )
    assert len(scenarios) == 2
    assert all(isinstance(s, api.Scenario) for s in scenarios)
    assert "feinting" in api.ATTACK_KINDS
