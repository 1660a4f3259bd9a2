"""The Monte Carlo trial engine: isolation, persistence, resume, stats."""

import json
import time

import pytest

from repro.campaigns import trials as trials_mod
from repro.campaigns.grid import expand_grid
from repro.campaigns.runners import run_trial
from repro.campaigns.scenario import Scenario
from repro.campaigns.trials import (
    aggregate_metrics,
    load_campaign_index,
    load_scenario_result,
    run_campaign,
)

pytestmark = pytest.mark.smoke

SMOKE_AXES = {
    "attack": ["selftest"],
    "mitigation": ["abo_only", "tprac"],
    "nbo": [64, 128],
}


def test_campaign_runs_grid_and_persists_scenario_documents(tmp_path):
    scenarios = expand_grid(SMOKE_AXES)
    result = run_campaign(scenarios, tmp_path, trials=3, jobs=1, seed=0)
    assert set(result.statuses.values()) == {"ok"}
    assert result.scenarios_ok == 4 and not result.had_errors
    for scenario in scenarios:
        doc = load_scenario_result(result.paths[scenario.scenario_id])
        assert doc["scenario_id"] == scenario.scenario_id
        assert doc["spec"] == scenario.to_dict()
        assert doc["trials_completed"] == 3 and doc["trials_ok"] == 3
        assert [t["seed"] for t in doc["trials"]] == [0, 1, 2]
        assert doc["metrics"]["value"]["n"] == 3
        lo, hi = doc["metrics"]["value"]["bootstrap_ci95"]
        assert lo <= doc["metrics"]["value"]["mean"] <= hi
    index = load_campaign_index(tmp_path)
    assert [e["experiment"] for e in index] == [
        s.scenario_id for s in scenarios
    ]


_REAL_EXECUTE_TRIAL = trials_mod._execute_trial


# Module-level (picklable) stand-in for trials._execute_trial: the first
# grid scenario finishes last.
def _nbo64_trial_sleeps(spec, seed, obs_dir=None):
    if spec["nbo"] == 64:
        time.sleep(0.5)
    return _REAL_EXECUTE_TRIAL(spec, seed, obs_dir)


def test_pooled_index_keeps_grid_order(tmp_path, monkeypatch):
    scenarios = expand_grid({"attack": ["selftest"], "nbo": [64, 128, 256]})
    monkeypatch.setattr(trials_mod, "_execute_trial", _nbo64_trial_sleeps)
    result = run_campaign(scenarios, tmp_path, trials=1, jobs=2, seed=0)
    assert set(result.statuses.values()) == {"ok"}
    index = load_campaign_index(tmp_path)
    assert [e["experiment"] for e in index] == [
        s.scenario_id for s in scenarios
    ]


def test_campaign_runs_on_a_process_pool(tmp_path):
    scenarios = expand_grid(SMOKE_AXES)
    result = run_campaign(scenarios, tmp_path, trials=3, jobs=2, seed=0)
    assert set(result.statuses.values()) == {"ok"}
    # Pool and inline execution must agree bit-for-bit (determinism).
    run_campaign(scenarios, tmp_path / "inline", trials=3, jobs=1)
    for scenario in scenarios:
        pooled_doc = load_scenario_result(result.paths[scenario.scenario_id])
        inline_doc = load_scenario_result(
            tmp_path / "inline" / result.paths[scenario.scenario_id].name
        )
        assert pooled_doc["metrics"] == inline_doc["metrics"]


def test_injected_crash_is_isolated_as_structured_error(tmp_path):
    scenarios = expand_grid(dict(SMOKE_AXES, crash_seeds=[1]))
    result = run_campaign(scenarios, tmp_path, trials=3, jobs=2, seed=0)
    # Every scenario still completed its other trials.
    assert set(result.statuses.values()) == {"partial"}
    assert result.had_errors
    for scenario in scenarios:
        doc = load_scenario_result(result.paths[scenario.scenario_id])
        assert doc["trials_ok"] == 2 and doc["trials_error"] == 1
        (failed,) = [t for t in doc["trials"] if t["status"] == "error"]
        assert failed["seed"] == 1
        assert failed["error"]["type"] == "RuntimeError"
        assert "injected selftest crash" in failed["error"]["message"]
        assert "traceback" in failed["error"]
        # Aggregates cover only the surviving trials.
        assert doc["metrics"]["value"]["n"] == 2
    index = load_campaign_index(tmp_path)
    assert all(e["status"] == "partial" for e in index)
    assert all(e["error"]["type"] == "RuntimeError" for e in index)


def test_resume_skips_completed_scenarios(tmp_path):
    scenarios = expand_grid(SMOKE_AXES)
    run_campaign(scenarios, tmp_path, trials=3, jobs=1, seed=0)
    resumed = run_campaign(
        scenarios, tmp_path, trials=3, jobs=1, seed=0, resume=True
    )
    assert set(resumed.statuses.values()) == {"cached"}
    assert resumed.scenarios_ok == len(scenarios)


def test_resume_reruns_on_changed_seed_trials_or_missing_file(tmp_path):
    scenarios = expand_grid(SMOKE_AXES)
    run_campaign(scenarios, tmp_path, trials=2, jobs=1, seed=0)
    # More trials requested than persisted -> re-run.
    more = run_campaign(scenarios, tmp_path, trials=3, jobs=1, seed=0, resume=True)
    assert set(more.statuses.values()) == {"ok"}
    # Different base seed -> cache key mismatch -> re-run.
    reseeded = run_campaign(
        scenarios, tmp_path, trials=3, jobs=1, seed=7, resume=True
    )
    assert set(reseeded.statuses.values()) == {"ok"}
    # Without resume, everything re-runs even if files match.
    fresh = run_campaign(scenarios, tmp_path, trials=3, jobs=1, seed=7)
    assert set(fresh.statuses.values()) == {"ok"}


def test_partial_scenarios_are_not_resumed_as_cached(tmp_path):
    scenarios = expand_grid(dict(SMOKE_AXES, crash_seeds=[0]))
    run_campaign(scenarios, tmp_path, trials=2, jobs=1, seed=0)
    again = run_campaign(
        scenarios, tmp_path, trials=2, jobs=1, seed=0, resume=True
    )
    assert set(again.statuses.values()) == {"partial"}


def test_scenario_documents_are_valid_json_mid_flush(tmp_path):
    # Atomic flush after every trial: the document on disk is always
    # parseable and internally consistent.
    scenarios = expand_grid({"attack": ["selftest"], "nbo": [64]})
    result = run_campaign(scenarios, tmp_path, trials=5, jobs=1)
    doc = json.loads(result.paths[scenarios[0].scenario_id].read_text())
    assert doc["trials_completed"] == len(doc["trials"]) == 5


def test_duplicate_scenarios_rejected(tmp_path):
    (scenario,) = expand_grid({"attack": ["selftest"]})
    with pytest.raises(ValueError, match="duplicate"):
        run_campaign([scenario, scenario], tmp_path, trials=1, jobs=1)


def test_trials_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="trials"):
        run_campaign(
            expand_grid({"attack": ["selftest"]}), tmp_path, trials=0
        )


def test_aggregate_metrics_matches_manual_mean_and_variance():
    trials = [
        {"status": "ok", "metrics": {"m": 1.0}},
        {"status": "ok", "metrics": {"m": 2.0}},
        {"status": "error", "error": {"type": "X", "message": ""}},
        {"status": "ok", "metrics": {"m": 6.0}},
    ]
    stats = aggregate_metrics(trials)["m"]
    assert stats["n"] == 3
    assert stats["mean"] == pytest.approx(3.0)
    assert stats["stdev"] == pytest.approx(2.6457513, rel=1e-6)
    lo, hi = stats["ci95"]
    assert lo < 3.0 < hi


def test_selftest_trial_is_deterministic_per_seed():
    scenario = Scenario(attack="selftest", nbo=64)
    assert run_trial(scenario, 3) == run_trial(scenario, 3)
    assert run_trial(scenario, 3) != run_trial(scenario, 4)


def test_perf_trial_requires_workload():
    with pytest.raises(ValueError, match="workload"):
        run_trial(Scenario(attack="perf", mitigation="tprac"), 0)


def test_aes_trial_rejects_unsupported_mitigation():
    with pytest.raises(ValueError, match="aes_side_channel supports"):
        run_trial(Scenario(attack="aes_side_channel", mitigation="qprac"), 0)


def test_feinting_trial_requires_tprac():
    with pytest.raises(ValueError, match="tprac"):
        run_trial(Scenario(attack="feinting", mitigation="abo_only"), 0)


def test_campaign_emits_heartbeat_and_lifecycle_events(tmp_path):
    from repro.obs.heartbeat import last_run, read_heartbeat, summarize

    scenarios = expand_grid({"attack": ["selftest"], "nbo": [64, 128]})
    seen = []
    run_campaign(
        scenarios, tmp_path, trials=2, jobs=1, seed=0,
        on_event=lambda event, fields: seen.append((event, dict(fields))),
    )
    events = [event for event, _ in seen]
    assert events[0] == "campaign.start"
    assert events[-1] == "campaign.finish"
    assert events.count("scenario.finish") == 2
    assert events.count("trial.finish") == 4

    records = read_heartbeat(tmp_path)
    assert [r["event"] for r in records] == events
    summary = summarize(last_run(records))
    assert summary["finished"] and not summary["faults"]
    assert summary["events"]["trial.finish"] == 4


def test_campaign_resume_heartbeat_appends_second_attempt(tmp_path):
    from repro.obs.heartbeat import last_run, read_heartbeat

    scenarios = expand_grid({"attack": ["selftest"], "nbo": [64]})
    run_campaign(scenarios, tmp_path, trials=2, jobs=1, seed=0)
    seen = []
    run_campaign(
        scenarios, tmp_path, trials=2, jobs=1, seed=0, resume=True,
        on_event=lambda event, fields: seen.append((event, dict(fields))),
    )
    assert ("scenario.cached", {"label": "selftest/abo_only/nbo64",
                                "trials": 2}) in [
        (event, {k: fields[k] for k in ("label", "trials") if k in fields})
        for event, fields in seen
    ]
    records = read_heartbeat(tmp_path)
    starts = [r for r in records if r["event"] == "campaign.start"]
    assert len(starts) == 2
    assert starts[0].get("resumed") is False
    assert starts[1].get("resumed") is True
    latest = last_run(records)
    assert {r["event"] for r in latest} >= {"scenario.cached", "campaign.finish"}


def test_campaign_heartbeat_can_be_disabled(tmp_path):
    scenarios = expand_grid({"attack": ["selftest"], "nbo": [64]})
    run_campaign(scenarios, tmp_path, trials=1, jobs=1, heartbeat=False)
    assert not (tmp_path / "heartbeat.jsonl").exists()
