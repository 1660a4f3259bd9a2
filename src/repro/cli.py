"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro.cli list
    python -m repro.cli fig7
    python -m repro.cli table2 --nbo 256 512
    python -m repro.cli fig10 --requests 3000 --workloads 433.milc 470.lbm
    python -m repro.cli fig10 --scheduler fcfs --mapping linear
    python -m repro.cli all
    python -m repro.cli suite --jobs 8 --only fig10 table2
    python -m repro.cli suite --out results/ --full --no-cache
    python -m repro.cli suite --list
    python -m repro.cli campaign --campaign security --trials 5 --jobs 8
    python -m repro.cli campaign --grid attack=selftest mitigation=tprac,qprac \\
        nbo=64,128 --trials 3 --out results/
    python -m repro.cli campaign --grid attack=aes_side_channel \\
        mitigation=abo_only,tprac nbo=128,256 --resume
    python -m repro.cli campaign --grid channels=1,2,4 --trials 3
    python -m repro.cli campaign --grid scheduler=fr_fcfs,fcfs mapping=linear,mop
    python -m repro.cli fig10 --cache l1l2 --interconnect crossbar
    python -m repro.cli campaign --grid cache=l1l2 interconnect=crossbar \\
        scheduler=fr_fcfs,fcfs
    python -m repro.cli campaign --grid attack=eviction_set cache=l1l2 \\
        mitigation=abo_only,tprac --trials 5
    python -m repro.cli campaign --grid trace=true metrics=true --progress
    python -m repro.cli campaign --campaign security --timeout 120
    python -m repro.cli obs report results/
    python -m repro.cli obs export-trace results/obs/trace-abc123-s0.jsonl

Each artifact subcommand runs the matching harness from
:mod:`repro.experiments` and prints the regenerated rows/series,
plus an ASCII rendering where the paper's artifact is a plot.

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
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.analysis import plotting


def _run_fig3(args) -> str:
    from repro.experiments import fig3_latency

    result = fig3_latency.run(nbo=args.nbo[0] if args.nbo else 256)
    blocks = [result.format_table()]
    for label, timeline in result.timelines.items():
        blocks.append(
            plotting.latency_strip(
                timeline.times, timeline.latencies, title=label
            )
        )
    return "\n\n".join(blocks)


def _run_table2(args) -> str:
    from repro.experiments import table2_covert

    result = table2_covert.run(nbo_values=tuple(args.nbo or (256, 512, 1024)))
    return result.format_table()


def _run_fig4(args) -> str:
    from repro.experiments import fig4_side_channel

    result = fig4_side_channel.run(encryptions=args.requests or 200)
    attack = result.attack
    strip = plotting.latency_strip(
        [t for t, _ in attack.probe_timeline],
        [lat for _, lat in attack.probe_timeline],
        title="attacker probe latency (probe phase)",
    )
    return result.format_table() + "\n\n" + strip


def _run_fig5(args) -> str:
    from repro.experiments import fig5_key_sweep

    result = fig5_key_sweep.run(encryptions=args.requests or 200)
    matrix = []
    labels = []
    for attack in result.results:
        row = [attack.victim_histogram.get(r, 0) for r in range(16)]
        matrix.append(row)
        labels.append(f"k0={attack.true_nibble << 4:3d}")
    heat = plotting.heatmap(
        matrix, row_labels=labels, title="victim activations per row (x=row 0..15)"
    )
    return result.format_table() + "\n\n" + heat


def _run_fig7(args) -> str:
    from repro.experiments import fig7_security

    result = fig7_security.run()
    series = {
        "with reset": [
            (r.tb_window_trefi, r.tmax) for r in result.sweep["with_reset"]
        ],
        "without reset": [
            (r.tb_window_trefi, r.tmax) for r in result.sweep["without_reset"]
        ],
    }
    plot = plotting.line_plot(
        series, title="TMAX vs TB-Window (tREFI)", logy=True
    )
    return result.format_table() + "\n\n" + plot


def _run_fig9(args) -> str:
    from repro.experiments import fig9_defense

    result = fig9_defense.run(encryptions=args.requests or 150)
    return result.format_table()


def _perf_args(args) -> dict:
    return dict(
        workloads=args.workloads or None,
        requests_per_core=args.requests or None,
        system=_system_config(args),
    )


def _system_config(args):
    """``--scheduler/--mapping/--refresh`` -> SystemConfig (or None).

    None (no flag given) keeps the experiments on the default system —
    the historically hard-wired FR-FCFS / MOP / periodic assembly.
    """
    overrides = {
        name: value
        for name, value in (
            ("scheduler", args.scheduler),
            ("mapping", args.mapping),
            ("refresh", args.refresh),
            ("cache", args.cache),
            ("interconnect", args.interconnect),
        )
        if value is not None
    }
    if not overrides:
        return None
    from repro.config import SystemConfig

    return SystemConfig(**overrides).validate()


def _run_fig10(args) -> str:
    from repro.experiments import fig10_performance

    result = fig10_performance.run(**_perf_args(args))
    labels = list(result.matrix)
    chart = plotting.bar_chart(
        labels,
        [result.slowdown_pct(label) for label in labels],
        unit="%",
        title="geomean slowdown",
    )
    return result.format_table() + "\n\n" + chart


def _run_fig11(args) -> str:
    from repro.experiments import fig11_prac_levels

    return fig11_prac_levels.run(**_perf_args(args)).format_table()


def _run_fig12(args) -> str:
    from repro.experiments import fig12_tref

    return fig12_tref.run(**_perf_args(args)).format_table()


def _run_fig13(args) -> str:
    from repro.experiments import fig13_nrh

    result = fig13_nrh.run(**_perf_args(args))
    series = {
        design: [
            (nrh, result.slowdown_pct(nrh, design)) for nrh in sorted(result.by_nrh)
        ]
        for design in ("abo_only", "abo_acb", "tprac")
    }
    plot = plotting.line_plot(series, title="slowdown% vs N_RH")
    return result.format_table() + "\n\n" + plot


def _run_fig14(args) -> str:
    from repro.experiments import fig14_reset

    return fig14_reset.run(**_perf_args(args)).format_table()


def _run_table5(args) -> str:
    from repro.experiments import table5_energy

    return table5_energy.run(**_perf_args(args)).format_table()


def _run_fig8(args) -> str:
    from repro.experiments import fig8_walkthrough

    return fig8_walkthrough.run(nbo=args.nbo[0] if args.nbo else 100).format_table()


def _run_scorecard(args) -> str:
    from repro.experiments import scorecard

    return scorecard.run().format_table()


def _run_obfuscation(args) -> str:
    from repro.experiments import obfuscation_defense

    return obfuscation_defense.run().format_table()


COMMANDS: Dict[str, Callable] = {
    "fig3": _run_fig3,
    "table2": _run_table2,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "fig14": _run_fig14,
    "table5": _run_table5,
    "scorecard": _run_scorecard,
    "obfuscation": _run_obfuscation,
}


def _list_artifacts() -> int:
    """``suite --list``: print the registry without running anything."""
    from repro.experiments import registry

    specs = registry.discover()
    width = max(len(name) for name in specs)
    art_width = max(len(spec.artifact) for spec in specs.values())
    for name in sorted(specs):
        spec = specs[name]
        kwargs = []
        if spec.quick:
            kwargs.append("quick: " + _format_kwargs(spec.quick))
        if spec.full:
            kwargs.append("full: " + _format_kwargs(spec.full))
        detail = f"  [{'; '.join(kwargs)}]" if kwargs else ""
        print(
            f"{name:<{width}}  {spec.artifact:<{art_width}}  {spec.title}{detail}"
        )
    return 0


def _format_kwargs(kwargs) -> str:
    return ", ".join(f"{k}={v!r}" for k, v in sorted(kwargs.items()))


def _run_suite(args) -> int:
    """``suite`` subcommand: parallel cached run over registered artifacts."""
    from repro.experiments import registry, runner

    if args.out is None:
        args.out = "results"
    if args.list:
        return _list_artifacts()
    if args.only is not None and not args.only:
        print("error: --only given but no artifact names followed", file=sys.stderr)
        return 2
    artifact_flags = [
        flag
        for flag, on in (
            ("--nbo", args.nbo is not None),
            ("--requests", args.requests is not None),
            ("--workloads", args.workloads is not None),
        )
        if on
    ]
    if artifact_flags:
        print(
            f"error: not applicable to 'suite': {', '.join(artifact_flags)} "
            "(scale is controlled by --full and the registry's ARTIFACT kwargs)",
            file=sys.stderr,
        )
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


#: artifact commands whose harnesses accept ``system=`` (the perf
#: matrix family); the only commands the structural flags apply to.
PERF_SYSTEM_COMMANDS = {"fig10", "fig11", "fig12", "fig13", "fig14", "table5"}


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
            # Device-only sweeps (e.g. --grid channels=1,2,4) default to
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
        choices=sorted(COMMANDS)
        + ["all", "campaign", "list", "obs", "suite"],
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
    parser.add_argument(
        "--nbo", type=int, nargs="*", help="Back-Off threshold(s) where applicable"
    )
    parser.add_argument(
        "--requests", type=int, help="per-core request / encryption budget"
    )
    parser.add_argument(
        "--workloads", nargs="*", help="workload names (default: balanced subset)"
    )
    parser.add_argument(
        "--scheduler", default=None, metavar="NAME",
        help="request scheduler for the perf artifacts "
             "(fr_fcfs/fcfs/fr_fcfs_cap; default fr_fcfs)",
    )
    parser.add_argument(
        "--mapping", default=None, metavar="NAME",
        help="address mapping for the perf artifacts (linear/mop; default mop)",
    )
    parser.add_argument(
        "--refresh", default=None, metavar="NAME",
        help="refresh policy for the perf artifacts "
             "(periodic/staggered; default periodic)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="NAME",
        help="cache hierarchy for the perf artifacts "
             "(none/l1l2; default none, the direct core->DRAM wiring)",
    )
    parser.add_argument(
        "--interconnect", default=None, metavar="NAME",
        help="cache<->memory interconnect for the perf artifacts "
             "(none/fixed/crossbar; default none)",
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
        help="paper-scale runs instead of quick laptop-scale",
    )
    campaign = parser.add_argument_group("campaign options")
    campaign.add_argument(
        "--grid", nargs="*", metavar="AXIS=V1,V2",
        help=(
            "grid axes, e.g. attack=aes_side_channel mitigation=abo_only,tprac "
            "nbo=128,256 channels=1,2,4 scheduler=fr_fcfs,fcfs "
            "mapping=linear,mop refresh=periodic,staggered; unknown axes "
            "become per-scenario params; a grid without an attack axis "
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
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
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
    }
    allowed = {
        "suite": {"--jobs", "--only", "--out", "--list", "--no-cache",
                  "--force", "--full", "--timeout"},
        "campaign": {"--jobs", "--only", "--out", "--list", "--grid",
                     "--campaign", "--trials", "--seed", "--resume",
                     "--progress", "--timeout"},
        "obs": {"--out"},
    }.get(args.experiment, set())
    rejected = [
        flag for flag, on in flags_used.items() if on and flag not in allowed
    ]
    if rejected:
        scope = (
            f"not applicable to '{args.experiment}'"
            if allowed
            else "only applies to the 'suite', 'campaign' and 'obs' commands"
        )
        print(f"error: {', '.join(rejected)} {scope}", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    # The structural flags only reach the perf harnesses (which thread
    # system= through run_perf_matrix/build_system); reject them
    # anywhere else so they can never be accepted-and-ignored —
    # campaign sweeps these axes via --grid scheduler=... instead.
    system_flags = [
        flag
        for flag, on in (
            ("--scheduler", args.scheduler is not None),
            ("--mapping", args.mapping is not None),
            ("--refresh", args.refresh is not None),
            ("--cache", args.cache is not None),
            ("--interconnect", args.interconnect is not None),
        )
        if on
    ]
    if system_flags and args.experiment not in PERF_SYSTEM_COMMANDS | {"all"}:
        hint = (
            " (campaign sweeps these via --grid scheduler=... mapping=...)"
            if args.experiment == "campaign"
            else ""
        )
        print(
            f"error: {', '.join(system_flags)} only applies to the perf "
            f"artifacts ({', '.join(sorted(PERF_SYSTEM_COMMANDS))}) and "
            f"'all'{hint}",
            file=sys.stderr,
        )
        return 2
    # Validate registry-backed flags up front so a typo yields the
    # uniform registry error, not a traceback from inside a harness.
    try:
        _system_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.experiment == "list":
        for name in sorted(COMMANDS):
            print(name)
        return 0
    if args.experiment == "suite":
        return _run_suite(args)
    if args.experiment == "campaign":
        return _run_campaign(args)
    if args.experiment == "obs":
        return _run_obs(args)
    names = sorted(COMMANDS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.time()
        print(f"==== {name} " + "=" * max(0, 60 - len(name)))
        print(COMMANDS[name](args))
        print(f"---- {name} done in {time.time() - started:.1f}s\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
