"""Campaign-level resilience: corruption recovery, fail-fast trials, interrupts."""

import json
import os
import time

import pytest

from repro.analysis.storage import verify_checksum
from repro.campaigns import trials as trials_mod
from repro.campaigns.grid import expand_grid
from repro.campaigns.trials import load_scenario_result, run_campaign
from repro.cli import main
from repro.obs.heartbeat import read_heartbeat

pytestmark = pytest.mark.smoke

AXES = {"attack": ["selftest"], "nbo": [64]}

_REAL_EXECUTE_TRIAL = trials_mod._execute_trial


# Module-level (picklable) stand-ins for trials._execute_trial: trial 1
# of the nbo=256 scenario fails one way each, every other trial runs
# for real.
def _nbo256_trial1_hangs(spec, seed, obs_dir=None):
    if spec["nbo"] == 256 and seed == 1:
        time.sleep(30)
    return _REAL_EXECUTE_TRIAL(spec, seed, obs_dir)


def _nbo256_trial1_exits(spec, seed, obs_dir=None):
    if spec["nbo"] == 256 and seed == 1:
        time.sleep(0.5)  # the other trials land first
        os._exit(3)
    return _REAL_EXECUTE_TRIAL(spec, seed, obs_dir)


def _scenario_path(result):
    (path,) = result.paths.values()
    return path


def _events(tmp_path):
    return [r["event"] for r in read_heartbeat(tmp_path)]


# ----------------------------------------------------------------------
# Checksummed scenario documents
# ----------------------------------------------------------------------
def test_scenario_documents_carry_valid_checksums(tmp_path):
    result = run_campaign(expand_grid(AXES), tmp_path, trials=2, jobs=1)
    doc = load_scenario_result(_scenario_path(result))
    assert verify_checksum(doc) is True


# ----------------------------------------------------------------------
# Resume-time corruption recovery
# ----------------------------------------------------------------------
def _corrupt_truncate(path):
    path.write_text(path.read_text()[: len(path.read_text()) // 2])


def _corrupt_bad_json(path):
    path.write_text("{definitely not json")


def _corrupt_checksum_mismatch(path):
    # Valid JSON, valid shape, stale checksum: a bit flip in a metric.
    doc = json.loads(path.read_text())
    doc["trials"][0]["metrics"]["value"] += 1.0
    path.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_truncate, _corrupt_bad_json, _corrupt_checksum_mismatch],
    ids=["truncated", "bad-json", "checksum-mismatch"],
)
def test_corrupt_scenario_file_is_quarantined_and_rerun(tmp_path, corrupt):
    scenarios = expand_grid(AXES)
    first = run_campaign(scenarios, tmp_path, trials=2, jobs=1, seed=0)
    path = _scenario_path(first)
    pristine = json.loads(path.read_text())
    corrupt(path)

    resumed = run_campaign(
        scenarios, tmp_path, trials=2, jobs=1, seed=0, resume=True
    )
    # Not trusted as a cache hit: the scenario re-ran...
    assert list(resumed.statuses.values()) == ["ok"]
    # ...the damaged file was preserved as a sidecar...
    sidecar = path.with_name(path.name + ".corrupt")
    assert sidecar.exists()
    # ...the re-run regenerated identical results (same seeds)...
    regenerated = json.loads(path.read_text())
    assert regenerated["metrics"] == pristine["metrics"]
    assert verify_checksum(regenerated) is True
    # ...and the recovery is visible in the heartbeat.
    assert "scenario.corrupt" in _events(tmp_path)


def test_intact_checksummed_file_still_resumes_as_cache_hit(tmp_path):
    scenarios = expand_grid(AXES)
    run_campaign(scenarios, tmp_path, trials=2, jobs=1, seed=0)
    resumed = run_campaign(
        scenarios, tmp_path, trials=2, jobs=1, seed=0, resume=True
    )
    assert list(resumed.statuses.values()) == ["cached"]


def test_legacy_document_without_checksum_is_accepted(tmp_path):
    # Pre-checksum result files must stay resumable, not be quarantined.
    scenarios = expand_grid(AXES)
    first = run_campaign(scenarios, tmp_path, trials=2, jobs=1, seed=0)
    path = _scenario_path(first)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    resumed = run_campaign(
        scenarios, tmp_path, trials=2, jobs=1, seed=0, resume=True
    )
    assert list(resumed.statuses.values()) == ["cached"]


def test_corrupt_campaign_index_is_quarantined(tmp_path):
    scenarios = expand_grid(AXES)
    run_campaign(scenarios, tmp_path, trials=1, jobs=1)
    (tmp_path / "campaign.json").write_text("{broken")
    run_campaign(scenarios, tmp_path, trials=1, jobs=1, resume=True)
    assert (tmp_path / "campaign.json.corrupt").exists()
    rows = json.loads((tmp_path / "campaign.json").read_text())
    assert isinstance(rows, list) and rows


# ----------------------------------------------------------------------
# Fail fast: a hung trial or a dead worker is an error, not a retry
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "stand_in, flags, error_type",
    [
        (_nbo256_trial1_hangs, ["--timeout", "1"], "TaskDeadlineExceeded"),
        (_nbo256_trial1_exits, [], "BrokenProcessPool"),
    ],
    ids=["hang", "worker-exit"],
)
def test_failed_trial_exits_1_and_resume_reruns_only_its_scenario(
    tmp_path, capsys, monkeypatch, stand_in, flags, error_type
):
    args = [
        "campaign", "--grid", "attack=selftest", "nbo=64,256",
        "--trials", "2", "--jobs", "2", "--out", str(tmp_path),
    ]
    monkeypatch.setattr(trials_mod, "_execute_trial", stand_in)
    assert main(args + flags) == 1
    capsys.readouterr()
    rows = {
        row["label"]: row
        for row in json.loads((tmp_path / "campaign.json").read_text())
    }
    assert rows["selftest/abo_only/nbo64"]["status"] == "ok"
    failed = rows["selftest/abo_only/nbo256"]
    assert failed["status"] == "partial"
    assert failed["error"]["type"] == error_type
    doc = load_scenario_result(tmp_path / failed["file"])
    assert doc["trials"][1]["status"] == "error"
    assert doc["trials"][1]["error"]["type"] == error_type

    monkeypatch.undo()
    assert main(args + ["--resume"]) == 0
    statuses = dict(
        line.split()[:2]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("selftest/")
    )
    assert statuses == {
        "selftest/abo_only/nbo64": "cached",
        "selftest/abo_only/nbo256": "ok",
    }


# ----------------------------------------------------------------------
# KeyboardInterrupt
# ----------------------------------------------------------------------
def test_interrupt_flushes_heartbeat_and_reraises(tmp_path, monkeypatch):
    def interrupted_trial(spec, seed, obs_dir=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(trials_mod, "_execute_trial", interrupted_trial)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(expand_grid(AXES), tmp_path, trials=2, jobs=1)
    events = _events(tmp_path)
    assert "campaign.interrupted" in events
    assert "campaign.finish" not in events
    # The index survived the abort.
    assert (tmp_path / "campaign.json").exists()
