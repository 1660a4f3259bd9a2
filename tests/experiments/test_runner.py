"""Tests for the experiment runner / JSON persistence."""

import importlib
import json

import pytest

from repro.core.executor import to_jsonable
from repro.experiments import registry
from repro.experiments.runner import load_summary, run_suite

pytestmark = pytest.mark.smoke


def load_result(path):
    return json.loads(path.read_text())


def _patch_run(monkeypatch, name, run):
    """Make registered artifact ``name`` run ``run`` instead of its harness."""
    module = importlib.import_module(registry.get(name).module)
    monkeypatch.setattr(module, "run", run)


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(KeyError):
        run_suite(tmp_path, experiments=["fig99"])


def test_runs_selected_experiments_and_writes_json(tmp_path):
    written = run_suite(tmp_path, experiments=["fig7", "fig8"])
    assert set(written) == {"fig7", "fig8"}
    for path in written.values():
        payload = load_result(path)
        assert "result" in payload and "table" in payload
        assert payload["elapsed_seconds"] >= 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [entry["experiment"] for entry in summary] == ["fig7", "fig8"]


def test_fig7_payload_contains_expected_values(tmp_path):
    written = run_suite(tmp_path, experiments=["fig7"])
    payload = load_result(written["fig7"])
    assert "572" in payload["table"]
    sweeps = payload["result"]["sweep"]
    tmaxes = [entry["tmax"] for entry in sweeps["with_reset"]]
    assert 572 in tmaxes


def test_custom_runner_overrides(tmp_path, monkeypatch):
    # The suite imports each harness's run() when it runs it, so a
    # replaced run() is what lands in the artifact.
    class FakeResult:
        def format_table(self):
            return "fake"

    _patch_run(monkeypatch, "fig8", FakeResult)
    written = run_suite(tmp_path, experiments=["fig8"], jobs=1)
    payload = load_result(written["fig8"])
    assert payload["table"] == "fake"


def test_to_jsonable_handles_nested_structures():
    from dataclasses import dataclass

    @dataclass
    class Point:
        x: int
        y: float

    converted = to_jsonable({(1, 2): [Point(1, 2.5), {"k": (3,)}]})
    assert converted == {"(1, 2)": [{"x": 1, "y": 2.5}, {"k": [3]}]}


def test_to_jsonable_falls_back_to_repr():
    class Weird:
        def __repr__(self):
            return "<weird>"

    assert to_jsonable(Weird()) == "<weird>"


class _FakeResult:
    def format_table(self):
        return "fake"


def _boom():
    raise RuntimeError("deliberate harness crash")


def test_failing_runner_is_isolated(tmp_path, monkeypatch):
    # A crashing harness must not abort the suite: the others complete
    # and the failure lands as a structured error entry in summary.json.
    _patch_run(monkeypatch, "fig7", _boom)
    _patch_run(monkeypatch, "fig8", _FakeResult)
    written = run_suite(tmp_path, experiments=["fig7", "fig8"], jobs=1)
    assert set(written) == {"fig8"}
    summary = {e["experiment"]: e for e in load_summary(tmp_path)}
    assert summary["fig8"]["status"] == "ok"
    assert summary["fig7"]["status"] == "error"
    assert summary["fig7"]["error"]["type"] == "RuntimeError"
    assert "deliberate harness crash" in summary["fig7"]["error"]["message"]
    assert "_boom" in summary["fig7"]["error"]["traceback"]
    assert not (tmp_path / "fig7.json").exists()


def test_summary_is_flushed_incrementally(tmp_path, monkeypatch):
    # Even when the *last* experiment fails, the earlier entry is
    # already on disk — interrupted runs leave a consistent index.
    _patch_run(monkeypatch, "fig8", _FakeResult)
    _patch_run(monkeypatch, "fig7", _boom)
    run_suite(tmp_path, experiments=["fig8", "fig7"], jobs=1)
    summary = load_summary(tmp_path)
    assert [e["experiment"] for e in summary] == ["fig8", "fig7"]
    assert [e["status"] for e in summary] == ["ok", "error"]


def test_subset_run_preserves_existing_summary_entries(tmp_path):
    # A later `--only`-style run must merge into summary.json, not
    # erase the record of previously completed artifacts.
    run_suite(tmp_path, experiments=["fig7", "fig8"])
    run_suite(tmp_path, experiments=["fig8"], force=True)
    summary = [e["experiment"] for e in load_summary(tmp_path)]
    assert summary == ["fig7", "fig8"]


def test_failed_rerun_invalidates_stale_cache(tmp_path, monkeypatch):
    # After a recorded failure, a later cached run must not resurrect
    # the stale success without actually re-running the experiment.
    run_suite(tmp_path, experiments=["fig8"])
    with monkeypatch.context() as patch:
        _patch_run(patch, "fig8", _boom)
        run_suite(tmp_path, experiments=["fig8"], jobs=1, force=True)
    assert "cache_key" not in load_result(tmp_path / "fig8.json")
    run_suite(tmp_path, experiments=["fig8"])
    summary = {e["experiment"]: e for e in load_summary(tmp_path)}
    assert summary["fig8"]["status"] == "ok"  # re-ran, not "cached"


def test_cache_hit_skips_rerun(tmp_path):
    first = run_suite(tmp_path, experiments=["fig8"])
    stamp = first["fig8"].stat().st_mtime_ns
    second = run_suite(tmp_path, experiments=["fig8"])
    assert second["fig8"] == first["fig8"]
    assert second["fig8"].stat().st_mtime_ns == stamp  # not rewritten
    summary = {e["experiment"]: e for e in load_summary(tmp_path)}
    assert summary["fig8"]["status"] == "cached"


def test_force_reruns_and_refreshes_cache(tmp_path):
    first = run_suite(tmp_path, experiments=["fig8"])
    stamp = first["fig8"].stat().st_mtime_ns
    run_suite(tmp_path, experiments=["fig8"], force=True)
    assert first["fig8"].stat().st_mtime_ns != stamp  # re-ran
    assert "cache_key" in load_result(first["fig8"])
    run_suite(tmp_path, experiments=["fig8"])
    summary = {e["experiment"]: e for e in load_summary(tmp_path)}
    assert summary["fig8"]["status"] == "cached"  # force refreshed the cache


def test_no_cache_bypasses_read_and_write(tmp_path):
    run_suite(tmp_path, experiments=["fig8"], use_cache=False)
    assert "cache_key" not in load_result(tmp_path / "fig8.json")
    run_suite(tmp_path, experiments=["fig8"])  # nothing cached to hit
    summary = {e["experiment"]: e for e in load_summary(tmp_path)}
    assert summary["fig8"]["status"] == "ok"


def test_cache_misses_when_version_or_kwargs_change(tmp_path):
    from repro.experiments import runner as runner_mod

    run_suite(tmp_path, experiments=["fig8"])
    payload = load_result(tmp_path / "fig8.json")
    spec_key = payload["cache_key"]
    assert spec_key == runner_mod._cache_key(
        "fig8", "repro.experiments.fig8_walkthrough", {}
    )
    assert spec_key != runner_mod._cache_key(
        "fig8", "repro.experiments.fig8_walkthrough", {"nbo": 200}
    )


def test_parallel_jobs_run_all_experiments(tmp_path):
    # Exercise the real process-pool path (jobs>1, >1 registry specs).
    written = run_suite(tmp_path, experiments=["fig7", "fig8"], jobs=2)
    assert set(written) == {"fig7", "fig8"}
    summary = load_summary(tmp_path)
    # Requested order is preserved regardless of completion order.
    assert [e["experiment"] for e in summary] == ["fig7", "fig8"]
    assert all(e["status"] == "ok" for e in summary)
    payload = load_result(written["fig7"])
    assert "572" in payload["table"]


def test_scale_feeds_the_cache_key():
    from repro.experiments import registry
    from repro.experiments import runner as runner_mod

    spec = registry.get("table2")  # quick and full kwargs differ
    keys = {
        runner_mod._cache_key(spec.name, spec.module, spec.kwargs(scale))
        for scale in registry.SCALES
    }
    assert len(keys) == 2


# ----------------------------------------------------------------------
# Resilience: corrupt caches, interrupts
# ----------------------------------------------------------------------
def test_corrupt_cache_file_is_quarantined_and_rerun(tmp_path):
    run_suite(tmp_path, experiments=["fig8"])
    (tmp_path / "fig8.json").write_text("{not json at all")
    written = run_suite(tmp_path, experiments=["fig8"])
    assert (tmp_path / "fig8.json.corrupt").exists()
    payload = load_result(written["fig8"])
    assert payload["status"] == "ok" and "cache_key" in payload
    summary = {e["experiment"]: e for e in load_summary(tmp_path)}
    assert summary["fig8"]["status"] == "ok"  # re-ran, not "cached"


def test_interrupted_suite_reraises_with_consistent_index(tmp_path, monkeypatch):
    from repro.experiments import runner as runner_mod

    def interrupted(name, module, kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_mod, "_execute_spec", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suite(tmp_path, experiments=["fig8"], use_cache=False)
    # The index is present and parseable (nothing completed).
    assert json.loads((tmp_path / "summary.json").read_text()) == []
