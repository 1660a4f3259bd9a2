"""Tests for the command-line interface."""

from contextlib import closing
import functools
import inspect
import json
import os
import subprocess
import sys
import time
import types

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import registry, runner

pytestmark = pytest.mark.smoke

_REAL_EXECUTE_SPEC = runner._execute_spec


# Module-level (picklable) stand-ins for runner._execute_spec: fig8
# fails one way each, every other artifact runs for real.
def _fig8_raises(name, module, kwargs):
    if name == "fig8":
        raise RuntimeError("deliberate fig8 failure")
    return _REAL_EXECUTE_SPEC(name, module, kwargs)


def _fig8_hangs(name, module, kwargs):
    if name == "fig8":
        time.sleep(30)
    return _REAL_EXECUTE_SPEC(name, module, kwargs)


def _fig8_exits(name, module, kwargs):
    if name == "fig8":
        time.sleep(0.5)  # fig7 lands first
        os._exit(3)
    return _REAL_EXECUTE_SPEC(name, module, kwargs)


@pytest.fixture
def stub_runs(monkeypatch):
    """Replace every registered harness's ``run`` with a stub of the
    same signature that records its keyword arguments and simulates
    nothing; returns the ``name -> [kwargs, ...]`` call log."""
    calls = {name: [] for name in registry.names()}
    for name in registry.names():
        spec = registry.get(name)
        real = spec.load_runner()

        def stub(*, _name=name, _real=real, **kwargs):
            inspect.signature(_real).bind(**kwargs)  # kwargs must fit run()
            calls[_name].append(kwargs)
            return types.SimpleNamespace(format_table=lambda: f"<{_name}>")

        functools.update_wrapper(stub, real)
        monkeypatch.setattr(f"{spec.module}.run", stub)
    monkeypatch.setattr(cli, "_PLOTS", {})  # the stub results have no series
    return calls


def test_every_registered_artifact_has_a_command(stub_runs, capsys):
    # The registry is the one artifact list: every registered artifact
    # is a command, and with no flags it calls run() with no keyword
    # arguments, the same call `suite --full` makes.
    for name in registry.names():
        build_parser().parse_args([name])
        assert main([name]) == 0
        assert stub_runs[name] == [{}]
        assert f"<{name}>" in capsys.readouterr().out
        assert registry.get(name).kwargs("full") == {}


def test_a_failing_scorecard_fails_its_command(stub_runs, capsys, monkeypatch):
    # Nothing is simulated: the card holds one FAIL row, and both
    # commands that render it exit 1 once every artifact has run.
    from repro.experiments.scorecard import Scorecard

    def failing_card(**kwargs):
        card = Scorecard()
        card.add("a graded claim", "paper", "measured", passed=False)
        return card

    monkeypatch.setattr(f"{registry.get('scorecard').module}.run", failing_card)
    assert main(["scorecard"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "scorecard reported a failing check" in captured.err
    assert main(["all"]) == 1
    assert "scorecard reported a failing check" in capsys.readouterr().err
    others = [name for name in registry.names() if name != "scorecard"]
    assert all(stub_runs[name] == [{}] for name in others)


def test_list_prints_commands(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out.splitlines() == registry.names()


#: (flag argv, run() parameter -> the value that parameter must get).
#: A harness declares at most one of each flag's parameters.
FLAG_CASES = [
    (["--nbo", "300"], {"nbo": 300, "nbo_values": (300,)}),
    (["--nbo", "300", "400"], {"nbo_values": (300, 400)}),
    (["--requests", "7"], {"requests_per_core": 7, "encryptions": 7}),
    (["--workloads", "433.milc", "470.lbm"], {"workloads": ["433.milc", "470.lbm"]}),
]


@pytest.mark.parametrize(
    "flag_argv, targets", FLAG_CASES, ids=[" ".join(argv) for argv, _ in FLAG_CASES]
)
def test_each_flag_lands_on_its_parameter_or_exits_2(stub_runs, capsys, flag_argv, targets):
    # Nothing is simulated: every artifact x flag either reaches the one
    # run() parameter it names or is refused before anything runs.
    for name in registry.names():
        params = inspect.signature(registry.get(name).load_runner()).parameters
        declared = [param for param in targets if param in params]
        assert len(declared) <= 1, (name, flag_argv)
        code = main([name, *flag_argv])
        captured = capsys.readouterr()
        if declared:
            assert code == 0, captured.err
            assert stub_runs[name] == [{declared[0]: targets[declared[0]]}]
        else:
            assert code == 2
            assert flag_argv[0] in captured.err and f"'{name}'" in captured.err
            assert stub_runs[name] == []
        stub_runs[name].clear()


def test_all_passes_each_flag_to_the_harnesses_that_take_it(stub_runs, capsys):
    assert main(["all", "--nbo", "300", "--requests", "7"]) == 0
    assert stub_runs["fig3"] == [{"nbo": 300}]
    assert stub_runs["table2"] == [{"nbo_values": (300,)}]
    assert stub_runs["fig9"] == [{"nbo": 300, "encryptions": 7}]
    assert stub_runs["fig10"] == [{"requests_per_core": 7}]
    assert stub_runs["fig7"] == [{}]
    assert capsys.readouterr().out.count("==== ") == len(registry.names())
    # A value one taker cannot use stops the whole command up front.
    for calls in stub_runs.values():
        calls.clear()
    assert main(["all", "--nbo", "300", "400"]) == 2
    assert "--nbo" in capsys.readouterr().err
    assert not any(stub_runs.values())


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fig7", "--nbo", "64", "--requests", "5", "--workloads", "433.milc"], "--nbo"),
        (["fig10", "--nbo", "256", "--requests", "300", "--workloads", "433.milc"], "--nbo"),
        (["fig8", "--workloads", "x"], "--workloads"),
        (["campaign", "--nbo", "128", "--list"], "--nbo"),
        (["list", "--requests", "3"], "--requests"),
        (["fig3", "--nbo", "256", "512"], "--nbo"),
        (["fig10", "--workloads", "x"], "'x'"),
        (["fig10", "--requests", "0"], "--requests"),
        (["fig8", "--nbo", "0"], "--nbo"),
        # The cache front end and the controller alternatives are
        # gone: argparse refuses their flags.
        (["fig10", "--cache", "l1l2"], "--cache"),
        (["fig10", "--interconnect", "crossbar"], "--interconnect"),
        (["fig10", "--scheduler", "fcfs"], "--scheduler"),
        (["fig10", "--mapping", "linear"], "--mapping"),
        (["fig10", "--refresh", "staggered"], "--refresh"),
    ],
)
def test_flags_that_would_be_ignored_exit_2(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


def test_help_returns_0(capsys):
    # argparse's own exits come back as main's return value.
    assert main(["--help"]) == 0
    assert "usage: repro" in capsys.readouterr().out


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


def _suite_with_failing_fig8(out_dir, capsys, monkeypatch, stand_in, *flags):
    """Run fig7+fig8 on a 2-wide pool with fig8 failing via ``stand_in``;
    then check that a plain re-run serves fig7 from the cache and
    re-runs only fig8.  Returns the failing run's exit code, output
    and summary entries."""
    args = ["suite", "--only", "fig7", "fig8", "--jobs", "2", "--out", str(out_dir)]
    monkeypatch.setattr(runner, "_execute_spec", stand_in)
    code = main(args + list(flags))
    printed = capsys.readouterr().out
    summary = {
        e["experiment"]: e
        for e in json.loads((out_dir / "summary.json").read_text())
    }
    monkeypatch.undo()
    assert main(args) == 0
    statuses = dict(
        line.split()[:2] for line in capsys.readouterr().out.splitlines()
        if line.startswith("fig")
    )
    assert statuses == {"fig7": "cached", "fig8": "ok"}
    return code, printed, summary


def test_suite_exits_nonzero_when_an_artifact_times_out(tmp_path, capsys, monkeypatch):
    code, printed, summary = _suite_with_failing_fig8(
        tmp_path, capsys, monkeypatch, _fig8_hangs, "--timeout", "1"
    )
    assert code == 1
    assert "suite: 1/2 artifacts ok" in printed
    assert summary["fig7"]["status"] == "ok"
    assert summary["fig8"]["status"] == "error"
    assert summary["fig8"]["error"]["type"] == "TaskDeadlineExceeded"


@pytest.mark.parametrize(
    "stand_in, error_type",
    [(_fig8_raises, "RuntimeError"), (_fig8_exits, "BrokenProcessPool")],
    ids=["raise", "worker-exit"],
)
def test_suite_exits_nonzero_when_an_artifact_fails(
    tmp_path, capsys, monkeypatch, stand_in, error_type
):
    code, printed, summary = _suite_with_failing_fig8(
        tmp_path, capsys, monkeypatch, stand_in
    )
    assert code == 1
    assert "suite: 1/2 artifacts ok" in printed
    assert summary["fig8"]["status"] == "error"
    assert summary["fig8"]["error"]["type"] == error_type


def test_suite_runs_a_repeated_artifact_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(name, module, kwargs):
        calls.append(name)
        return _REAL_EXECUTE_SPEC(name, module, kwargs)

    monkeypatch.setattr(runner, "_execute_spec", counting)
    code = main([
        "suite", "--only", "fig8", "fig8", "--jobs", "1", "--out", str(tmp_path),
    ])
    assert code == 0
    assert calls == ["fig8"]
    assert "suite: 1/1 artifacts ok" in capsys.readouterr().out


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


def test_import_leaves_the_attack_package_unloaded():
    """`repro list` and `--help` run no attack: importing the CLI in a
    fresh interpreter loads no `repro.attacks` or `repro.crypto` module."""
    code = (
        "import sys\n"
        "import repro.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('repro.attacks', 'repro.crypto'))))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


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
        assert main(["fig7", flag]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert main(["suite", "--reps", "3"]) == 2
    assert "--reps" in capsys.readouterr().err


def test_obs_report_renders_campaign_summary(tmp_path, capsys):
    from repro.obs.heartbeat import HEARTBEAT_FILENAME, HeartbeatWriter

    with closing(HeartbeatWriter(tmp_path / HEARTBEAT_FILENAME)) as writer:
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
    assert main(["fig7", "--strict"]) == 2
    assert "--strict" in capsys.readouterr().err


def test_verbosity_flags_are_global_and_exclusive(capsys):
    assert main(["--quiet", "list"]) == 0
    capsys.readouterr()
    assert main(["--verbose", "list"]) == 0
    capsys.readouterr()
    assert main(["--verbose", "--quiet", "list"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def _assert_unknown_flag(capsys, argv, flag):
    assert main(argv) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_retries_and_timeout_accepted_for_suite_and_campaign(tmp_path, capsys):
    # Failures are not retried any more, so no command takes a retry
    # budget; --timeout stays.
    code = main([
        "suite", "--only", "fig7", "--out", str(tmp_path), "--timeout", "300",
    ])
    assert code == 0
    capsys.readouterr()
    code = main([
        "campaign", "--grid", "attack=selftest", "--out", str(tmp_path / "c"),
        "--trials", "1", "--jobs", "1", "--timeout", "60",
    ])
    assert code == 0
    capsys.readouterr()
    for command in ("suite", "campaign"):
        _assert_unknown_flag(capsys, [command, "--retries", "1"], "--retries")


def test_retries_and_timeout_rejected_on_other_commands(capsys):
    for command in ("fig7", "fig10"):
        _assert_unknown_flag(capsys, [command, "--retries", "2"], "--retries")
        assert main([command, "--timeout", "5"]) == 2
        assert "--timeout" in capsys.readouterr().err


def test_invalid_retry_and_timeout_values_exit_2(capsys):
    _assert_unknown_flag(capsys, ["suite", "--retries", "-1"], "--retries")
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
