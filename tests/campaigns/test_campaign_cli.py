"""The ``repro campaign`` CLI front-end."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke

GRID = [
    "attack=selftest",
    "mitigation=abo_only,tprac,qprac,rfmpb",
    "nbo=64,128,256",
]


def test_campaign_list_prints_expanded_grid(capsys):
    assert main(["campaign", "--grid"] + GRID + ["--list"]) == 0
    out = capsys.readouterr().out
    assert "12 scenarios" in out
    assert "selftest/qprac/nbo128" in out


def test_campaign_runs_grid_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    code = main(
        ["campaign", "--grid"] + GRID
        + ["--trials", "3", "--jobs", "2", "--out", str(out_dir)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "12/12 scenarios ok (3 trials each)" in printed
    assert (out_dir / "campaign.json").exists()
    index = json.loads((out_dir / "campaign.json").read_text())
    assert len(index) == 12
    assert all(e["status"] == "ok" and e["trials_ok"] == 3 for e in index)


def test_campaign_survives_injected_crash_and_signals_failure(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    code = main(
        ["campaign", "--grid"] + GRID
        + ["crash_seeds=1", "--trials", "3", "--out", str(out_dir), "--jobs", "2"]
    )
    assert code == 1                      # errors are signalled...
    printed = capsys.readouterr().out
    assert "partial" in printed           # ...but every scenario completed
    index = json.loads((out_dir / "campaign.json").read_text())
    assert len(index) == 12
    assert all(e["trials_ok"] == 2 and e["trials_error"] == 1 for e in index)


def test_campaign_resume_reports_cached(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    args = ["campaign", "--grid"] + GRID + ["--trials", "2", "--out", str(out_dir)]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--resume"]) == 0
    assert "cached" in capsys.readouterr().out


def test_campaign_only_filters_scenarios(tmp_path, capsys):
    code = main(
        ["campaign", "--grid"] + GRID + ["--only", "qprac", "--list"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "3 scenarios" in out and "tprac" not in out.replace("qprac", "")


def test_campaign_only_with_no_match_errors(capsys):
    assert main(["campaign", "--grid"] + GRID + ["--only", "zzz"]) == 2
    assert "matched no scenarios" in capsys.readouterr().err


def test_campaign_bad_grid_token_errors(capsys):
    assert main(["campaign", "--grid", "nbo"]) == 2
    assert "bad grid token" in capsys.readouterr().err


def test_campaign_removed_axis_errors_before_running(tmp_path, capsys):
    args = ["campaign", "--grid", "attack=selftest", "engine=event,batched"]
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert "grid axis 'engine' was removed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "token, message",
    [
        ("cache=l1l2", "grid axis 'cache' was removed"),
        ("interconnect=crossbar", "grid axis 'interconnect' was removed"),
        ("attack=eviction_set", "unknown attack 'eviction_set'"),
        ("scheduler=fcfs", "grid axis 'scheduler' was removed"),
        ("mapping=linear", "grid axis 'mapping' was removed"),
        ("refresh=staggered", "grid axis 'refresh' was removed"),
    ],
)
def test_campaign_removed_cache_spellings_error_before_running(
    tmp_path, capsys, token, message
):
    assert main(["campaign", "--grid", token, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_campaign_misspelled_axis_errors_before_running(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    args = [
        "campaign", "--grid", "attack=perf", "workload=433.milc",
        "mitigations=tprac,qprac",
    ]
    assert main(args + ["--list"]) == 2
    captured = capsys.readouterr()
    assert "unknown grid axis 'mitigations'" in captured.err
    assert "scenarios" not in captured.out
    assert main(args + ["--trials", "1", "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_campaign_empty_grid_errors_instead_of_running_builtin(capsys):
    assert main(["campaign", "--grid"]) == 2
    assert "--grid given but no" in capsys.readouterr().err


def test_campaign_nonpositive_trials_errors_cleanly(capsys):
    assert main(["campaign", "--campaign", "smoke", "--trials", "0"]) == 2
    assert "trials must be positive" in capsys.readouterr().err


def test_campaign_unknown_builtin_errors(capsys):
    assert main(["campaign", "--campaign", "bogus"]) == 2
    assert "unknown campaign" in capsys.readouterr().err


def test_suite_list_prints_registry_without_running(capsys):
    assert main(["suite", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out and "scorecard" in out
    assert "Figure 10" in out
    assert "quick:" in out


def test_campaign_flags_rejected_on_other_commands(capsys):
    assert main(["fig7", "--trials", "3"]) == 2
    assert "--trials" in capsys.readouterr().err
    assert main(["suite", "--grid", "attack=selftest"]) == 2
    assert "--grid" in capsys.readouterr().err
    assert main(["campaign", "--full"]) == 2
    assert "--full" in capsys.readouterr().err
