"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro.cli list
    python -m repro.cli fig7
    python -m repro.cli table2 --nbo 256 512
    python -m repro.cli fig10 --requests 3000 --workloads 433.milc 470.lbm
    python -m repro.cli all
    python -m repro.cli suite --jobs 8 --only fig10 table2
    python -m repro.cli suite --out results/ --full --no-cache
    python -m repro.cli suite --list
    python -m repro.cli campaign --campaign security --trials 5 --jobs 8
    python -m repro.cli campaign --grid attack=selftest mitigation=tprac,qprac \\
        nbo=64,128 --trials 3 --out results/
    python -m repro.cli campaign --grid attack=aes_side_channel \\
        mitigation=abo_only,tprac nbo=128,256 --resume
    python -m repro.cli campaign --grid mitigation=abo_only,tprac --trials 3
    python -m repro.cli campaign --grid trace=true metrics=true --progress
    python -m repro.cli campaign --campaign security --timeout 120
    python -m repro.cli obs report results/
    python -m repro.cli obs export-trace results/obs/trace-abc123-s0.jsonl

The artifact subcommands, ``list`` and ``all`` come from the artifact
registry (:mod:`repro.experiments.registry`).  ``repro <name>`` calls
the registered harness's ``run()`` — with no flags that is its own
defaults, the same call ``suite --full`` makes — and prints the
regenerated rows/series, plus an ASCII rendering where the paper's
artifact is a plot.  The artifact flags (``--nbo``, ``--requests`` and
``--workloads``) fill only parameters that ``run()`` declares: a flag
the harness has no parameter for exits 2 before anything runs, and
``all`` passes each flag to the harnesses that take it.  Every usage
error, argparse's own included, makes :func:`main` return 2.  A
scorecard with a failing check makes ``repro scorecard`` and
``repro all`` return 1, after every requested artifact has run.

``suite`` runs the registered artifact harnesses through the parallel,
fault-isolated, cached orchestrator (:mod:`repro.experiments.runner`)
and persists JSON results + a ``summary.json`` index; ``suite --list``
prints the registry without running anything.

``suite`` and ``campaign`` fail fast: an artifact or trial that raises,
outlives ``--timeout`` or loses its worker process is recorded as an
error entry and the command exits 1; re-running the same command (the
suite's cache, ``campaign --resume``) re-runs only the failed work.

``campaign`` expands a declarative attack×defense grid into scenarios
(:mod:`repro.campaigns`) and runs batched seeded Monte Carlo trials
per scenario on a process pool; ``--resume`` skips scenarios already
persisted under their content-hash IDs, ``--list`` prints the expanded
grid without running it.

``obs`` reads back the telemetry a campaign collected (see
:mod:`repro.obs`): ``obs report <campaign-dir>`` summarizes the index,
heartbeat stream and per-trial traces/metrics; ``obs export-trace``
converts a JSONL trace into Chrome ``trace_event`` JSON for Perfetto.

``--verbose``/``--quiet`` adjust the structured logger level for any
command (key=value lines on stderr; results stay on stdout).
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis import plotting
from repro.experiments import registry


def _plot_fig3(result) -> str:
    return "\n\n".join(
        plotting.latency_strip(timeline.times, timeline.latencies, title=label)
        for label, timeline in result.timelines.items()
    )


def _plot_fig4(result) -> str:
    timeline = result.attack.probe_timeline
    return plotting.latency_strip(
        [t for t, _ in timeline],
        [lat for _, lat in timeline],
        title="attacker probe latency (probe phase)",
    )


def _plot_fig5(result) -> str:
    matrix = []
    labels = []
    for attack in result.results:
        matrix.append([attack.victim_histogram.get(r, 0) for r in range(16)])
        labels.append(f"k0={attack.true_nibble << 4:3d}")
    return plotting.heatmap(
        matrix, row_labels=labels, title="victim activations per row (x=row 0..15)"
    )


def _plot_fig7(result) -> str:
    series = {
        "with reset": [
            (r.tb_window_trefi, r.tmax) for r in result.sweep["with_reset"]
        ],
        "without reset": [
            (r.tb_window_trefi, r.tmax) for r in result.sweep["without_reset"]
        ],
    }
    return plotting.line_plot(series, title="TMAX vs TB-Window (tREFI)", logy=True)


def _plot_fig10(result) -> str:
    labels = list(result.matrix)
    return plotting.bar_chart(
        labels,
        [result.slowdown_pct(label) for label in labels],
        unit="%",
        title="geomean slowdown",
    )


def _plot_fig13(result) -> str:
    series = {
        design: [(nrh, result.slowdown_pct(nrh, design)) for nrh in sorted(result.by_nrh)]
        for design in ("abo_only", "abo_acb", "tprac")
    }
    return plotting.line_plot(series, title="slowdown% vs N_RH")


#: ASCII renderings of the artifacts the paper draws as plots; an
#: artifact command prints one below the result's table.
_PLOTS: Dict[str, Callable[[Any], str]] = {
    "fig3": _plot_fig3,
    "fig4": _plot_fig4,
    "fig5": _plot_fig5,
    "fig7": _plot_fig7,
    "fig10": _plot_fig10,
    "fig13": _plot_fig13,
}

#: Artifact flag -> the ``run()`` parameters it can fill.  A harness
#: declares at most one target of each flag; one that declares none
#: rejects the flag.
_FLAG_TARGETS: Dict[str, Tuple[str, ...]] = {
    "--nbo": ("nbo", "nbo_values"),
    "--requests": ("requests_per_core", "encryptions"),
    "--workloads": ("workloads",),
}


def _parameters(name: str) -> Mapping[str, inspect.Parameter]:
    """The parameters of artifact ``name``'s ``run()``."""
    return inspect.signature(registry.get(name).load_runner()).parameters


def _takers(param: str) -> str:
    """Comma list of the artifacts whose ``run()`` declares ``param``."""
    return ", ".join(name for name in registry.names() if param in _parameters(name))


def _artifact_flags(args) -> Dict[str, Any]:
    """The artifact flags given on the command line -> their values."""
    values = {"--nbo": args.nbo, "--requests": args.requests, "--workloads": args.workloads}
    return {flag: value for flag, value in values.items() if value is not None}


def _run_kwargs(
    name: str, flags: Mapping[str, Any]
) -> Tuple[Dict[str, Any], List[str]]:
    """Fill artifact ``name``'s ``run()`` parameters from ``flags``.

    Returns the keyword arguments and the flags whose parameters
    ``run()`` does not declare.  Raises ``ValueError`` when ``--nbo``
    gives several values to a harness that takes one.
    """
    params = _parameters(name)
    kwargs: Dict[str, Any] = {}
    unused = []
    for flag, value in flags.items():
        param = next((p for p in _FLAG_TARGETS[flag] if p in params), None)
        if param is None:
            unused.append(flag)
            continue
        if param == "nbo":
            if len(value) != 1:
                raise ValueError(f"--nbo takes one value for '{name}', got {len(value)}")
            value = value[0]
        elif param == "nbo_values":
            value = tuple(value)
        kwargs[param] = value
    return kwargs, unused


def _run_artifacts(args) -> int:
    """An artifact command (or ``all``): run the registered harnesses.

    Every flag is checked against every harness before anything runs.
    """
    from repro.workloads.catalog import get_workload

    names = registry.names() if args.experiment == "all" else [args.experiment]
    flags = _artifact_flags(args)
    calls = []
    try:
        for name in names:
            kwargs, unused = _run_kwargs(name, flags)
            if unused and args.experiment != "all":
                targets = dict.fromkeys(p for flag in unused for p in _FLAG_TARGETS[flag])
                raise ValueError(
                    f"{', '.join(unused)} not applicable to '{name}' "
                    f"(its run() takes none of {', '.join(targets)})"
                )
            calls.append((name, kwargs))
        # A registry typo gets the registry's error, not a traceback
        # from inside a harness.
        for workload in args.workloads or ():
            get_workload(workload)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    failed = []
    for name, kwargs in calls:
        started = time.time()
        print(f"==== {name} " + "=" * max(0, 60 - len(name)))
        result = registry.get(name).load_runner()(**kwargs)
        text = result.format_table()
        if name in _PLOTS:
            text += "\n\n" + _PLOTS[name](result)
        print(text)
        print(f"---- {name} done in {time.time() - started:.1f}s\n")
        # The scorecard grades itself: a FAIL row fails the command.
        if not getattr(result, "all_passed", True):
            failed.append(name)
    if failed:
        print(f"error: {', '.join(failed)} reported a failing check", file=sys.stderr)
        return 1
    return 0


def _list_artifacts() -> int:
    """``suite --list``: print the registry without running anything."""
    specs = registry.discover()
    width = max(len(name) for name in specs)
    art_width = max(len(spec.artifact) for spec in specs.values())
    for name in sorted(specs):
        spec = specs[name]
        detail = ""
        if spec.quick:
            quick = ", ".join(f"{k}={v!r}" for k, v in sorted(spec.quick.items()))
            detail = f"  [quick: {quick}]"
        print(
            f"{name:<{width}}  {spec.artifact:<{art_width}}  {spec.title}{detail}"
        )
    return 0


def _run_suite(args) -> int:
    """``suite`` subcommand: parallel cached run over registered artifacts."""
    from repro.experiments import runner

    if args.out is None:
        args.out = "results"
    if args.list:
        return _list_artifacts()
    if args.only is not None and not args.only:
        print("error: --only given but no artifact names followed", file=sys.stderr)
        return 2
    started = time.time()
    try:
        runner.run_suite(
            args.out,
            experiments=args.only or None,
            jobs=args.jobs,
            scale="full" if args.full else "quick",
            use_cache=not args.no_cache,
            force=args.force,
            timeout=args.timeout,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            f"suite: interrupted after {time.time() - started:.1f}s; "
            f"completed artifacts are cached in {args.out} and a re-run "
            "picks up where this one stopped",
            file=sys.stderr,
        )
        return 130
    # summary.json keeps history across runs; report/exit only on the
    # artifacts this invocation actually covered.
    requested = set(args.only) if args.only else set(registry.discover())
    statuses = {
        entry["experiment"]: entry
        for entry in runner.load_summary(args.out)
        if entry["experiment"] in requested
    }
    width = max(len(name) for name in statuses) if statuses else 0
    for name, entry in statuses.items():
        status = entry["status"]
        if status == "error":
            detail = f"{entry['error']['type']}: {entry['error']['message']}"
        else:
            detail = f"{entry.get('elapsed_seconds', 0.0):8.3f}s  {entry.get('file', '')}"
        print(f"{name:<{width}}  {status:<7}  {detail}")
    errors = sum(1 for entry in statuses.values() if entry["status"] == "error")
    print(
        f"suite: {len(statuses) - errors}/{len(statuses)} artifacts ok "
        f"in {time.time() - started:.1f}s -> {args.out}"
    )
    return 1 if errors else 0


def _run_campaign(args) -> int:
    """``campaign`` subcommand: declarative grid + Monte Carlo trials."""
    from repro import campaigns

    if args.out is None:
        args.out = "results"
    if args.grid is not None and not args.grid:
        print("error: --grid given but no axis=values tokens followed",
              file=sys.stderr)
        return 2
    try:
        if args.grid is not None:
            axes = campaigns.parse_grid_tokens(args.grid)
            # Device-only sweeps (e.g. --grid nbo=128,256) default to
            # a perf scenario on a pinned workload so the grid runs
            # without requiring the attack/workload axes to be spelled.
            defaults = []
            if "attack" not in axes:
                axes = {"attack": ["perf"], **axes}
                defaults.append("attack=perf")
            if axes["attack"] == ["perf"] and "workload" not in axes:
                axes["workload"] = ["433.milc"]
                defaults.append("workload=433.milc")
            if defaults:
                print(f"note: defaulting {' '.join(defaults)}")
            scenarios = campaigns.expand_grid(axes)
        else:
            scenarios = campaigns.builtin_scenarios(args.campaign or "security")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.only:
        tokens = list(args.only)
        scenarios = [
            s
            for s in scenarios
            if any(t in s.label or s.scenario_id.startswith(t) for t in tokens)
        ]
        if not scenarios:
            print("error: --only matched no scenarios", file=sys.stderr)
            return 2
    if args.list:
        width = max(len(s.label) for s in scenarios)
        for scenario in scenarios:
            print(f"{scenario.scenario_id}  {scenario.label:<{width}}")
        print(f"{len(scenarios)} scenarios")
        return 0

    started = time.time()
    trials = args.trials if args.trials is not None else 3
    on_event = None
    if args.progress:
        from repro.obs.progress import CampaignProgressRenderer

        on_event = CampaignProgressRenderer().on_event
    try:
        result = campaigns.run_campaign(
            scenarios,
            args.out,
            trials=trials,
            jobs=args.jobs,
            seed=args.seed or 0,
            resume=args.resume,
            timeout=args.timeout,
            on_event=on_event,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            f"campaign: interrupted after {time.time() - started:.1f}s; "
            f"partial results flushed to {args.out} (re-run with --resume "
            "to continue)",
            file=sys.stderr,
        )
        return 130
    width = max(len(label) for label in result.labels.values())
    for scenario in scenarios:
        sid = scenario.scenario_id
        status = result.statuses[sid]
        detail = ""
        doc = campaigns.load_scenario_result(result.paths[sid])
        if status != "cached":
            detail = f"{doc.get('trials_ok', 0)}/{trials} trials ok"
        means = "  ".join(
            f"{name}={stats['mean']:.4g}"
            for name, stats in doc.get("metrics", {}).items()
        )
        print(
            f"{result.labels[sid]:<{width}}  {status:<7}  {detail:<14}  {means}"
        )
    print(
        f"campaign: {result.scenarios_ok}/{len(result.statuses)} scenarios ok "
        f"({trials} trials each) in {time.time() - started:.1f}s "
        f"-> {result.output_dir}"
    )
    return 1 if result.had_errors else 0


def _run_obs(args) -> int:
    """``obs`` subcommand: campaign telemetry reports + trace export."""
    from repro.obs import report as obs_report

    tokens = list(args.obs_args)
    if not tokens:
        print(
            "error: obs needs a subcommand: report [campaign-dir] | "
            "export-trace TRACE.jsonl [--out FILE]",
            file=sys.stderr,
        )
        return 2
    sub, rest = tokens[0], tokens[1:]
    if sub == "report":
        if len(rest) > 1:
            print("error: obs report takes at most one campaign directory",
                  file=sys.stderr)
            return 2
        directory = rest[0] if rest else (args.out or "results")
        try:
            print(obs_report.campaign_report(directory))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    if sub == "export-trace":
        if len(rest) != 1:
            print("error: obs export-trace takes exactly one trace JSONL path",
                  file=sys.stderr)
            return 2
        try:
            out = obs_report.export_trace(rest[0], out=args.out)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"-> {out}")
        return 0
    print(
        f"error: unknown obs subcommand {sub!r}; expected "
        "'report' or 'export-trace'",
        file=sys.stderr,
    )
    return 2


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from the PRACLeak/TPRAC paper.",
    )
    parser.add_argument(
        "experiment",
        choices=registry.names() + ["all", "campaign", "list", "obs", "suite"],
        help=(
            "which artifact to regenerate ('suite' for the parallel runner, "
            "'campaign' for declarative scenario sweeps, 'obs' for "
            "telemetry reports)"
        ),
    )
    parser.add_argument(
        "obs_args", nargs="*", metavar="OBS_ARG",
        help=(
            "'obs' subcommand and operands: report [campaign-dir] | "
            "export-trace TRACE.jsonl"
        ),
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose", action="store_true",
        help="debug-level structured logs on stderr (any command)",
    )
    verbosity.add_argument(
        "--quiet", action="store_true",
        help="suppress structured logs below warning (any command)",
    )
    artifact = parser.add_argument_group(
        "artifact options",
        "each fills the named run() parameter of the artifact it is given "
        "to; an artifact whose run() lacks the parameter rejects the flag, "
        "and 'all' passes each flag to the artifacts that take it",
    )
    artifact.add_argument(
        "--nbo", type=int, nargs="+", metavar="N",
        help=(
            f"Back-Off threshold N_BO: one value for nbo= ({_takers('nbo')}), "
            f"one or more for nbo_values= ({_takers('nbo_values')})"
        ),
    )
    artifact.add_argument(
        "--requests", type=int, metavar="N",
        help=(
            f"run length: requests_per_core= ({_takers('requests_per_core')}) "
            f"or encryptions= ({_takers('encryptions')})"
        ),
    )
    artifact.add_argument(
        "--workloads", nargs="+", metavar="NAME",
        help=(
            f"workload names for workloads= ({_takers('workloads')}; "
            "default: a category-balanced subset)"
        ),
    )
    shared = parser.add_argument_group("suite/campaign shared options")
    shared.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: cpu count)",
    )
    shared.add_argument(
        "--only", nargs="*", metavar="NAME",
        help=(
            "restrict 'suite' to these artifacts / 'campaign' to scenarios "
            "whose label contains or id starts with any NAME"
        ),
    )
    shared.add_argument(
        "--out", default=None,
        help="results directory (default: 'results')",
    )
    shared.add_argument(
        "--list", action="store_true",
        help=(
            "print what would run — registered artifacts for 'suite', the "
            "expanded grid for 'campaign' — without running anything"
        ),
    )
    shared.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-artifact / per-trial wall-clock deadline; a task that "
             "outlives it is recorded as a TaskDeadlineExceeded error "
             "(default: no deadline)",
    )
    suite = parser.add_argument_group("suite options")
    suite.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache entirely (neither read nor write it)",
    )
    suite.add_argument(
        "--force", action="store_true",
        help="re-run even on a cache hit and refresh the cache entry",
    )
    suite.add_argument(
        "--full", action="store_true",
        help=(
            "run each harness at its own defaults, the run 'repro <name>' "
            "makes, instead of the registry's quick kwargs"
        ),
    )
    campaign = parser.add_argument_group("campaign options")
    campaign.add_argument(
        "--grid", nargs="*", metavar="AXIS=V1,V2",
        help=(
            "grid axes, e.g. attack=aes_side_channel mitigation=abo_only,tprac "
            "nbo=128,256 sanitize=true; trial params "
            "(symbols, encryptions, ...) become per-scenario params and any "
            "other axis is an error; a grid without an attack axis "
            "defaults to a perf sweep on the 433.milc workload"
        ),
    )
    campaign.add_argument(
        "--campaign", default=None, metavar="NAME",
        help="built-in campaign to run when no --grid is given "
             "(security/perf/smoke; default security)",
    )
    campaign.add_argument(
        "--trials", type=int, default=None,
        help="Monte Carlo trials per scenario (default 3; trial t uses seed+t)",
    )
    campaign.add_argument(
        "--seed", type=int, default=None,
        help="base seed for the trial sequence (default 0)",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="skip scenarios whose persisted results match their "
             "content-hash cache key and trial count",
    )
    campaign.add_argument(
        "--progress", action="store_true",
        help="live progress line on stderr driven by campaign heartbeat "
             "events (scenarios/trials done, faults)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    argparse's own exits (a usage error, ``--help``) come back as their
    code too, so a caller never has to catch ``SystemExit``.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.verbose or args.quiet:
        from repro.obs.log import set_verbosity

        set_verbosity("debug" if args.verbose else "quiet")
    if args.obs_args and args.experiment != "obs":
        print(
            f"error: trailing arguments {args.obs_args} only apply to 'obs'",
            file=sys.stderr,
        )
        return 2
    flags_used = {
        "--jobs": args.jobs is not None,
        "--only": bool(args.only),
        "--out": args.out is not None,
        "--list": args.list,
        "--no-cache": args.no_cache,
        "--force": args.force,
        "--full": args.full,
        "--grid": args.grid is not None,
        "--campaign": args.campaign is not None,
        "--trials": args.trials is not None,
        "--seed": args.seed is not None,
        "--resume": args.resume,
        "--timeout": args.timeout is not None,
        "--progress": args.progress,
        **{flag: True for flag in _artifact_flags(args)},
    }
    allowed = {
        "suite": {"--jobs", "--only", "--out", "--list", "--no-cache",
                  "--force", "--full", "--timeout"},
        "campaign": {"--jobs", "--only", "--out", "--list", "--grid",
                     "--campaign", "--trials", "--seed", "--resume",
                     "--progress", "--timeout"},
        "obs": {"--out"},
        "list": set(),
    }.get(args.experiment, set(_FLAG_TARGETS))
    rejected = [
        flag for flag, on in flags_used.items() if on and flag not in allowed
    ]
    if rejected:
        hint = (
            " (campaign sweeps these via --grid, e.g. --grid nbo=128,256)"
            if args.experiment == "campaign" and set(rejected) & set(_FLAG_TARGETS)
            else ""
        )
        print(
            f"error: {', '.join(rejected)} not applicable to "
            f"'{args.experiment}'{hint}",
            file=sys.stderr,
        )
        return 2
    positive = {
        "--timeout": [args.timeout],
        "--requests": [args.requests],
        "--nbo": args.nbo or [],
    }
    for flag, values in positive.items():
        if any(value is not None and value <= 0 for value in values):
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 2
    if args.experiment == "list":
        for name in registry.names():
            print(name)
        return 0
    if args.experiment == "suite":
        return _run_suite(args)
    if args.experiment == "campaign":
        return _run_campaign(args)
    if args.experiment == "obs":
        return _run_obs(args)
    return _run_artifacts(args)


if __name__ == "__main__":
    sys.exit(main())
