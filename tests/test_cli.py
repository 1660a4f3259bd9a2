"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.experiments import registry

pytestmark = pytest.mark.smoke


def test_every_registered_artifact_has_a_command():
    # The CLI must not drift from the registry: every registered
    # artifact is individually invocable.
    assert set(COMMANDS) == set(registry.discover())


def test_list_prints_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_fig7_runs_and_prints_values(capsys):
    assert main(["fig7"]) == 0
    out = capsys.readouterr().out
    assert "572" in out and "736" in out
    assert "TMAX vs TB-Window" in out


def test_table2_with_custom_nbo(capsys):
    assert main(["table2", "--nbo", "256"]) == 0
    out = capsys.readouterr().out
    assert "Activity-Based" in out
    assert "Activation-Count-Based" in out
    assert " 512" not in out.split("Kbps")[0]


def test_fig10_with_small_scale(capsys):
    code = main([
        "fig10", "--requests", "500",
        "--workloads", "433.milc", "453.povray",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "GEOMEAN" in out
    assert "433.milc" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_fig10_with_system_flags(capsys):
    code = main([
        "fig10", "--requests", "400", "--workloads", "433.milc",
        "--scheduler", "fcfs", "--mapping", "linear",
    ])
    assert code == 0
    assert "GEOMEAN" in capsys.readouterr().out


def test_unknown_scheduler_flag_gets_registry_error(capsys):
    assert main(["fig10", "--scheduler", "round_robin"]) == 2
    err = capsys.readouterr().err
    assert "'scheduler'" in err and "fr_fcfs" in err


def test_system_flags_rejected_outside_perf_artifacts(capsys):
    # Anywhere the flag would be accepted-and-ignored must reject it:
    # suite, campaign (which sweeps via --grid), non-perf figs.
    for command in ("suite", "campaign", "fig7"):
        assert main([command, "--scheduler", "fcfs"]) == 2
        assert "--scheduler" in capsys.readouterr().err


def test_suite_command_runs_selected_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main([
        "suite", "--only", "fig7", "fig8", "--jobs", "2",
        "--out", str(out_dir), "--no-cache",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "2/2 artifacts ok" in printed
    assert (out_dir / "fig7.json").exists()
    assert (out_dir / "fig8.json").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [e["experiment"] for e in summary] == ["fig7", "fig8"]
    assert all(e["status"] == "ok" for e in summary)


def test_suite_exit_code_ignores_stale_entries_from_other_runs(tmp_path, capsys):
    # summary.json keeps history; a passing subset run must not fail
    # because an artifact from a *previous* run is recorded as error.
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    (out_dir / "summary.json").write_text(json.dumps([
        {"experiment": "fig3", "status": "error",
         "error": {"type": "RuntimeError", "message": "old failure"}},
    ]))
    code = main(["suite", "--only", "fig8", "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "fig3" not in printed
    assert "1/1 artifacts ok" in printed
    # ...but the stale entry is still preserved in the index itself.
    summary = json.loads((out_dir / "summary.json").read_text())
    assert {e["experiment"] for e in summary} == {"fig3", "fig8"}


def test_suite_only_flags_rejected_on_other_commands(capsys):
    assert main(["fig7", "--full"]) == 2
    assert "--full" in capsys.readouterr().err
    assert main(["list", "--jobs", "4"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_suite_command_reports_cache_hits(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["suite", "--only", "fig8", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["suite", "--only", "fig8", "--out", str(out_dir)]) == 0
    assert "cached" in capsys.readouterr().out


def test_bench_command_is_gone(capsys):
    # Performance is measured by perfbench/ (see BENCHMARK.json); the
    # CLI has no bench command.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_bench_flags_rejected_on_other_commands(capsys):
    # The options of the removed bench command are unknown to every
    # remaining command.
    for flag in ("--smoke", "--reps", "--warmup", "--rev", "--baseline"):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7", flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["suite", "--reps", "3"])
    assert excinfo.value.code == 2
    assert "--reps" in capsys.readouterr().err


def test_obs_report_renders_campaign_summary(tmp_path, capsys):
    from repro.obs.heartbeat import HEARTBEAT_FILENAME, HeartbeatWriter

    with HeartbeatWriter(tmp_path / HEARTBEAT_FILENAME) as writer:
        writer.emit("campaign.start", scenarios=1, trials=1)
        writer.emit("campaign.finish", scenarios_ok=1)
    assert main(["obs", "report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"campaign: {tmp_path}" in out
    assert "heartbeat: 2 records" in out


def test_obs_report_missing_directory_fails(tmp_path, capsys):
    assert main(["obs", "report", str(tmp_path / "nope")]) == 1
    assert "not a campaign directory" in capsys.readouterr().err


def test_obs_export_trace_writes_chrome_json(tmp_path, capsys):
    from repro.obs.trace import TraceEvent, export_trace_jsonl

    source = tmp_path / "trace-s0.jsonl"
    export_trace_jsonl([TraceEvent("ACT", 1.0, dur=15.0, bank=0, row=2)],
                       source)
    out_path = tmp_path / "custom.chrome.json"
    assert main(["obs", "export-trace", str(source),
                 "--out", str(out_path)]) == 0
    assert f"-> {out_path}" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert any(e.get("name") == "ACT" for e in doc["traceEvents"])


def test_obs_usage_errors_exit_2(capsys):
    assert main(["obs"]) == 2
    assert "needs a subcommand" in capsys.readouterr().err
    assert main(["obs", "frobnicate"]) == 2
    assert "unknown obs subcommand" in capsys.readouterr().err
    assert main(["obs", "export-trace"]) == 2
    assert "export-trace" in capsys.readouterr().err


def test_obs_arguments_rejected_on_other_commands(capsys):
    assert main(["fig7", "report"]) == 2
    assert "obs" in capsys.readouterr().err


def test_progress_flag_only_valid_for_campaign(capsys):
    assert main(["suite", "--progress"]) == 2
    assert "--progress" in capsys.readouterr().err


def test_strict_flag_only_valid_for_bench(capsys):
    # --strict belonged to the removed bench command, so no command
    # accepts it now.
    with pytest.raises(SystemExit) as excinfo:
        main(["fig7", "--strict"])
    assert excinfo.value.code == 2
    assert "--strict" in capsys.readouterr().err


def test_verbosity_flags_are_global_and_exclusive(capsys):
    assert main(["--quiet", "list"]) == 0
    capsys.readouterr()
    assert main(["--verbose", "list"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--verbose", "--quiet", "list"])
    capsys.readouterr()


def test_retries_and_timeout_accepted_for_suite_and_campaign(tmp_path, capsys):
    code = main([
        "suite", "--only", "fig7", "--out", str(tmp_path),
        "--retries", "0", "--timeout", "300",
    ])
    assert code == 0
    capsys.readouterr()
    code = main([
        "campaign", "--grid", "attack=selftest", "--out", str(tmp_path / "c"),
        "--trials", "1", "--jobs", "1", "--retries", "1", "--timeout", "60",
    ])
    assert code == 0


def test_retries_and_timeout_rejected_on_other_commands(capsys):
    for command in ("fig7", "fig10"):
        assert main([command, "--retries", "2"]) == 2
        assert "--retries" in capsys.readouterr().err
        assert main([command, "--timeout", "5"]) == 2
        assert "--timeout" in capsys.readouterr().err


def test_invalid_retry_and_timeout_values_exit_2(capsys):
    assert main(["suite", "--retries", "-1"]) == 2
    assert "--retries" in capsys.readouterr().err
    assert main(["campaign", "--grid", "attack=selftest", "--timeout", "0"]) == 2
    assert "--timeout" in capsys.readouterr().err


def test_interrupted_suite_exits_130(tmp_path, capsys, monkeypatch):
    from repro.experiments import runner as runner_mod

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_mod, "run_suite", interrupted)
    code = main(["suite", "--only", "fig7", "--out", str(tmp_path)])
    assert code == 130
    assert "interrupted" in capsys.readouterr().err


def test_interrupted_campaign_exits_130(tmp_path, capsys, monkeypatch):
    from repro import campaigns as campaigns_mod

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(campaigns_mod, "run_campaign", interrupted)
    code = main([
        "campaign", "--grid", "attack=selftest", "--out", str(tmp_path),
        "--trials", "1",
    ])
    assert code == 130
    assert "interrupted" in capsys.readouterr().err
