"""Which functions and knobs under ``src/`` does the product actually run?

Runs every product entry point in this process, one job each, under
``sys.setprofile``: the quick suite (plain and with every controller
sanitized), the three builtin campaigns and the smoke campaign's
resume, ``scripts/verify.sh``'s campaign grids, one scenario of every
attack kind, ``obs report`` and ``obs export-trace``, every artifact's
CLI rendering, one untraced pass of each perfbench workload and every
``examples/*.py`` script.  It then lists every function defined under
``src/`` (with ``ast``) and exits 1 naming each one no entry point
called that :data:`ALLOWLIST` does not name.

The same trace checks keyword parameters.  For every defaulted
parameter (positional or keyword-only) of a function in
:data:`PARAM_SCOPE`, it records whether any call passed a value other
than the default, and exits 1 naming each never-set parameter that
:data:`PARAM_ALLOWLIST` does not name.  The scope is the model and
attacker packages, where a knob selects a second simulation path that
every product run then skips.  Outside it, a default is the product's
own input surface: the ``run()`` parameters in ``experiments`` are
filled by the CLI flags and the registry's quick kwargs, the
``analysis`` functions are formulas whose defaults are the paper's
values, and ``campaigns``, ``obs`` and the CLI take their values from
grids and flags.

Usage, from anywhere (no flags)::

    python tools/reach.py

A function that only tests reach is deleted with its tests, or moved
under ``tests/`` when a test uses it as an oracle; a parameter only
tests set becomes its default, and the branch it selected goes.  The
allowlists are for the six classes in :data:`CLASSES` only.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import glob
import inspect
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Allowlist reason classes: every :data:`ALLOWLIST` reason starts with
#: one of these names and a colon.
CLASSES = {
    "error": "error and safety paths no healthy run takes",
    "repr": "debug __repr__s and what they read",
    "declaration": "declarations and interface defaults",
    "input": "paths that depend on the input",
    "observable": "observables the reference-equivalence fuzz compares",
    "roadmap": "kept for an open ROADMAP item",
}

_EXECUTOR = "error: the executor's deadline, pool teardown and error payloads"
_SANITIZER = "error: the sanitizer's violation path"
_QUEUE = "declaration: MitigationQueue's abstract interface"
_STATS = "roadmap: stats_utils' aggregators (item 10: seed spread)"
_MIXES = "roadmap: the paper's CloudSuite mixes (item 4: paper scale)"

#: ``"path::Qualname"`` (path relative to ``src/``) -> ``"class: reason"``.
ALLOWLIST: Dict[str, str] = {
    "repro/analysis/storage.py::CorruptResultError.__init__":
        "error: a corrupt or truncated result file",
    "repro/analysis/storage.py::quarantine_corrupt":
        "error: a corrupt result file moves to a *.corrupt sidecar",
    "repro/campaigns/builtin.py::builtin_names":
        "error: the unknown-campaign message lists the builtin names",
    "repro/core/executor.py::_call_with_deadline": _EXECUTOR,
    "repro/core/executor.py::_call_with_deadline.<locals>.expire": _EXECUTOR,
    "repro/core/executor.py::_error_payload": _EXECUTOR,
    "repro/core/executor.py::_terminate_pool": _EXECUTOR,
    "repro/core/executor.py::error_entry": _EXECUTOR,
    "repro/dram/sanitizer.py::ProtocolChecker._fail": _SANITIZER,
    "repro/dram/sanitizer.py::ProtocolChecker.history": _SANITIZER,
    "repro/dram/sanitizer.py::ProtocolViolation.__init__": _SANITIZER,
    "repro/dram/sanitizer.py::ProtocolChecker._on_rfm_pb":
        "error: the sanitizer's RFMpb rules, run only on a sanitized RFMpb system",
    "repro/experiments/runner.py::_error_payload":
        "error: an artifact that raises becomes an error entry",
    "repro/experiments/runner.py::_invalidate_stale_result":
        "error: a failed re-run strips the stale result's cache key",
    "repro/obs/log.py::StructuredLogger.warning":
        "error: warnings (corrupt results, interrupts)",
    "repro/controller/request.py::MemRequest.__repr__": "repr: debugging aid",
    "repro/dram/bank.py::Bank.__repr__": "repr: debugging aid",
    "repro/dram/commands.py::Command.__repr__": "repr: debugging aid",
    "repro/dram/commands.py::Command.is_all_bank": "repr: Command.__repr__ reads it",
    "repro/obs/trace.py::TraceEvent.__repr__": "repr: debugging aid",
    "repro/cpu/core.py::MemoryTarget.enqueue":
        "declaration: the protocol a core issues into",
    "repro/prac/mitigation_queue.py::MitigationQueue.__len__": _QUEUE,
    "repro/prac/mitigation_queue.py::MitigationQueue.clear": _QUEUE,
    "repro/prac/mitigation_queue.py::MitigationQueue.observe": _QUEUE,
    "repro/prac/mitigation_queue.py::MitigationQueue.pop_victim": _QUEUE,
    "repro/mitigations/base.py::MitigationPolicy.on_tref":
        "declaration: the default TREF hook (policies ignore the slot)",
    "repro/mitigations/base.py::NoMitigationPolicy.mitigate_on_rfm":
        "declaration: the baseline mitigates nothing on an RFM",
    "repro/controller/stats.py::RfmLog.__getitem__":
        "declaration: its two typing.overload stubs (the implementation runs)",
    "repro/prac/abo.py::AboProtocol.reset":
        "input: runs when an Alert fires with ABO off",
    "repro/prac/mitigation_queue.py::PriorityMitigationQueue.clear":
        "input: runs when a priority-queue policy crosses a tREFW with counter reset on",
    "repro/core/engine.py::Engine.pending":
        "observable: the reference-equivalence fuzz compares it",
    "repro/analysis/stats_utils.py::Summary.__str__": _STATS,
    "repro/analysis/stats_utils.py::Summary.overlaps": _STATS,
    "repro/analysis/stats_utils.py::across_seeds": _STATS,
    "repro/analysis/stats_utils.py::compare_designs": _STATS,
    "repro/analysis/stats_utils.py::summarize": _STATS,
    "repro/workloads/mixes.py::cloudsuite_mix": _MIXES,
    "repro/workloads/mixes.py::heterogeneous_traces": _MIXES,
    "repro/workloads/mixes.py::named_mix": _MIXES,
}

#: Packages under ``src/repro/`` whose defaulted parameters are checked.
PARAM_SCOPE = ("core", "controller", "cpu", "dram", "prac", "mitigations", "attacks")

#: ``"path::Qualname(param=)"`` -> ``"class: reason"``, for defaulted
#: parameters in :data:`PARAM_SCOPE` that no entry point sets.  The
#: parameters of a function no entry point reaches are not listed here:
#: :data:`ALLOWLIST` (or the function check) already covers them.
PARAM_ALLOWLIST: Dict[str, str] = {
    "repro/core/executor.py::map_tasks(timeout=)":
        "input: `suite`/`campaign --timeout` arms a per-task deadline",
    "repro/attacks/side_channel.py::AesSideChannelAttack.__init__(abo_act=)":
        "roadmap: item 13, JEDEC's ABO_ACT maximum (test_abo_act_sensitivity)",
    "repro/attacks/feinting_sim.py::FeintingAttack.__init__(tb_window=)":
        "roadmap: item 14 stretches the TB-Window past the solved one",
    "repro/attacks/feinting_sim.py::FeintingAttack.__init__(config=)":
        "roadmap: item 14 runs the executed attack on the paper's device",
}

#: Per-artifact CLI flags: small runs of every artifact's rendering.
#: fig10 runs without ``--workloads``, so its default workload subset
#: is built too.
_PERF_FLAGS = ["--requests", "200", "--workloads", "433.milc"]
ARTIFACT_FLAGS: Dict[str, List[str]] = {
    "fig4": ["--requests", "60"],
    "fig5": ["--requests", "60"],
    "fig9": ["--requests", "60"],
    "fig10": ["--requests", "100"],
    "fig11": _PERF_FLAGS,
    "fig12": _PERF_FLAGS,
    "fig13": _PERF_FLAGS,
    "fig14": _PERF_FLAGS,
    "table5": _PERF_FLAGS,
}

#: One one-trial scenario per attack kind, run at ``--seed 1`` (the
#: builtin campaigns run seed 0); the covert ones carry background
#: workload noise and the AES one runs at PRAC level 2.
ATTACK_GRIDS: Dict[str, List[str]] = {
    "perf": ["workload=433.milc", "requests_per_core=200"],
    "covert_activity": ["workload=433.milc", "symbols=4", "noise_accesses=50"],
    "covert_count": ["workload=433.milc", "symbols=2", "noise_accesses=50"],
    "aes_side_channel": ["encryptions=60", "prac_level=2"],
    "feinting": ["mitigation=tprac", "pool_size=8"],
    "selftest": [],
}


# ----------------------------------------------------------------------
# The function list
# ----------------------------------------------------------------------
def _defs(nodes: List[ast.AST], prefix: str) -> Iterator[Tuple[str, ast.AST]]:
    """(qualname, node) of every def below ``nodes``, as ``__qualname__``
    spells it; lambdas and comprehensions are not defs."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _defs(node.body, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")
        else:  # defs inside if/try/with blocks keep their prefix
            yield from _defs(list(ast.iter_child_nodes(node)), prefix)


def _walk(src: Path) -> Iterator[Tuple[Tuple[str, int], str, ast.AST]]:
    """``((file, first line), "path::Qualname", node)`` for every def
    under ``src``.

    The line is the code object's ``co_firstlineno``: a decorated
    function's code starts at its first decorator.
    """
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(src).as_posix()
        for qualname, node in _defs(tree.body, ""):
            line = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield (str(path.resolve()), line), f"{rel}::{qualname}", node


def functions(src: Path = SRC) -> Dict[Tuple[str, int], str]:
    """``(file, first line) -> "path::Qualname"`` for every def under ``src``."""
    return {key: name for key, name, _ in _walk(src)}


def defaulted(node: ast.AST) -> Dict[str, ast.expr]:
    """Parameter name -> default expression, for every positional and
    keyword-only parameter of the def ``node`` that has a default."""
    args = node.args  # type: ignore[attr-defined]
    positional = args.posonlyargs + args.args
    found = {
        arg.arg: default
        for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults)
    }
    found.update(
        (arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return found


def parameters(
    src: Path = SRC, scope: Tuple[str, ...] = PARAM_SCOPE
) -> Dict[Tuple[str, int], Tuple[str, Dict[str, ast.expr]]]:
    """``(file, first line) -> ("path::Qualname", defaults)`` for every
    def with a defaulted parameter in the ``scope`` packages under
    ``src/repro``."""
    prefixes = tuple(f"repro/{package}/" for package in scope)
    return {
        key: (name, defaults)
        for key, name, node in _walk(src)
        if name.startswith(prefixes) and (defaults := defaulted(node))
    }


def default_value(node: ast.expr, namespace: Dict[str, Any]) -> Any:
    """The value of a default expression: a literal directly, anything
    else (a name such as a class) evaluated in ``namespace``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return eval(compile(ast.Expression(node), "<default>", "eval"), namespace)


# ----------------------------------------------------------------------
# The entry points
# ----------------------------------------------------------------------
def _cli(*argv: str, expect: int = 0) -> None:
    from repro.cli import main

    code = main(list(argv))
    if code != expect:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}, expected {expect}")


def _campaign(out: str, *argv: str) -> None:
    _cli("campaign", *argv, "--jobs", "1", "--out", out)


def _listings() -> None:
    _cli("list")
    _cli("suite", "--list")
    _cli("campaign", "--campaign", "security", "--list")


def _sanitized_suite(out: str) -> None:
    from repro.config import SystemConfig
    from repro.controller import controller
    from repro.experiments.runner import load_summary, run_suite

    saved = controller.DEFAULT_SYSTEM
    controller.DEFAULT_SYSTEM = SystemConfig(sanitize=True)
    try:
        run_suite(out, jobs=1, use_cache=False)
    finally:
        controller.DEFAULT_SYSTEM = saved
    errors = [e["experiment"] for e in load_summary(out) if e["status"] == "error"]
    if errors:
        raise RuntimeError(f"sanitized quick suite: {errors} ended error")


def _telemetry(out: str) -> None:
    _campaign(
        out, "--grid", "trace=true", "metrics=true", "mitigation=tprac,rfmpb",
        "requests_per_core=5000", "--trials", "1", "--progress",
    )
    _cli("obs", "report", out)
    trace = sorted(glob.glob(os.path.join(out, "obs", "trace-*.jsonl")))[0]
    _cli("obs", "export-trace", trace, "--out", os.path.join(out, "export.json"))


def _attack_kinds(out: str) -> None:
    from repro.campaigns.scenario import ATTACK_KINDS

    for kind in ATTACK_KINDS:
        grid = ["--grid", f"attack={kind}", *ATTACK_GRIDS[kind]]
        _campaign(os.path.join(out, kind), *grid, "--trials", "1", "--seed", "1")


def _artifacts() -> None:
    from repro.experiments import registry

    for name in registry.names():
        _cli(name, *ARTIFACT_FLAGS.get(name, []))
    from repro.obs.log import set_verbosity

    try:
        _cli("fig7", "--verbose")
        _cli("fig8", "--quiet")
    finally:
        set_verbosity("info")


def _perfbench() -> None:
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    for name in WORKLOADS:
        log = harness.ControllerLog()
        with log.installed():
            ops, built = harness.setup(name, 0, log)
            for op, (obj, controllers) in zip(ops, built):
                fn, args = op.call(obj)
                log.target = controllers  # an attack op builds its systems as it runs
                result = fn(*args)
                log.target = None
                problems = op.violations(op.outputs(obj, result, controllers))
                if problems:
                    raise RuntimeError(f"perfbench {op.name}: {problems}")


def _examples() -> None:
    argv = sys.argv
    try:
        for path in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(path)]
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv


def entry_points(scratch: str) -> List[Tuple[str, Callable[[], None]]]:
    """(name, callable) of every product entry point, in run order."""

    def out(name: str) -> str:
        return os.path.join(scratch, name)

    def campaign(name: str, *argv: str) -> Callable[[], None]:
        return lambda: _campaign(out(name), *argv, "--trials", "1")

    smoke = ("--campaign", "smoke", "--trials", "3")
    sanitize = ("sanitize=true", "mitigation=abo_only,tprac,qprac", "requests_per_core=5000")
    return [
        ("quick suite", lambda: _cli("suite", "--jobs", "1", "--out", out("suite"))),
        ("listings", _listings),
        ("campaign security", campaign("security", "--campaign", "security")),
        ("campaign perf", campaign("perf", "--campaign", "perf")),
        ("campaign smoke", lambda: _campaign(out("smoke"), *smoke)),
        ("campaign smoke --resume", lambda: _campaign(out("smoke"), *smoke, "--resume")),
        ("sanitize grid", campaign("sanitize", "--grid", *sanitize)),
        ("sanitized quick suite", lambda: _sanitized_suite(out("sanitized-suite"))),
        ("telemetry grid + obs", lambda: _telemetry(out("telemetry"))),
        ("attack kinds", lambda: _attack_kinds(out("attacks"))),
        ("artifact CLI renderings", _artifacts),
        ("perfbench passes", _perfbench),
        ("examples", _examples),
    ]


# ----------------------------------------------------------------------
# The trace
# ----------------------------------------------------------------------
_RESUMABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
_UNEVALUATED = object()


def _key(code: object) -> Tuple[str, int]:
    return (os.path.realpath(code.co_filename), code.co_firstlineno)  # type: ignore[attr-defined]


class Watch:
    """The defaulted parameters of one function that no call has set yet."""

    __slots__ = ("name", "nodes", "defaults", "unset", "start", "errors")

    def __init__(self, name: str, nodes: Dict[str, ast.expr]) -> None:
        self.name = name
        self.nodes = nodes
        self.defaults: Optional[Dict[str, Any]] = None
        self.unset = set(nodes)
        #: a resumable code's first instruction offset past its
        #: preamble; a resume's ``call`` event comes from later on
        self.start: Optional[int] = None
        self.errors: List[str] = []

    def bind(self, code: Any) -> None:
        """Learn where a generator's first ``call`` event comes from."""
        if code.co_flags & _RESUMABLE:
            resumes = [i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"]
            self.start = resumes[0] if resumes else -1

    def check(self, frame: Any) -> bool:
        """Fold one call's parameter values in; False once all are set."""
        if self.start is not None and frame.f_lasti > self.start:
            return True  # a resumed generator: only its first call counts
        defaults = self.defaults
        if defaults is None:
            defaults = self.defaults = {}
            for param, node in self.nodes.items():
                try:
                    defaults[param] = default_value(node, frame.f_globals)
                except Exception as exc:  # reported, never raised into the run
                    defaults[param] = _UNEVALUATED
                    self.errors.append(f"{param}: {exc!r}")
        values = frame.f_locals
        for param in tuple(self.unset):
            value = values[param]
            default = defaults[param]
            if value is default or default is _UNEVALUATED:
                continue
            try:
                same = bool(value == default)
            except Exception:
                same = False
            if not same:
                self.unset.discard(param)
        return bool(self.unset)


def trace(
    steps: List[Tuple[str, Callable[[], None]]],
    defined: Dict[Tuple[str, int], str],
    watches: Dict[Tuple[str, int], Watch],
) -> Set[Tuple[str, int]]:
    """Run ``steps`` under the profile hook; the ``defined`` keys of
    every function that ran.  Each step's line gives its wall time and
    how many ``defined`` functions it reached first.  Each call of a
    function keyed in ``watches`` folds its parameter values into its
    :class:`Watch`."""
    #: every code object seen -> its watch, or None once nothing of it
    #: is watched (the common case, one dict lookup per event)
    seen: Dict[object, Optional[Watch]] = {}
    lookup = seen.get
    keyed: Set[object] = set()
    reached: Set[Tuple[str, int]] = set()
    realpaths: Dict[str, str] = {}

    def watch_for(code: Any) -> Optional[Watch]:
        filename = code.co_filename
        path = realpaths.get(filename)
        if path is None:
            path = realpaths[filename] = os.path.realpath(filename)
        watch = watches.get((path, code.co_firstlineno))
        if watch is not None:
            if not watch.unset:
                return None
            watch.bind(code)
        return watch

    def hook(frame, event, _arg):  # type: ignore[no-untyped-def]
        code = frame.f_code
        watch = lookup(code, seen)
        if watch is None:
            return
        if watch is seen:
            watch = seen[code] = watch_for(code)
            if watch is None:
                return
        if event == "call" and not watch.check(frame):
            seen[code] = None

    for name, step in steps:
        started = time.perf_counter()
        sink = io.StringIO()
        # Re-installed each step: anything a step runs may swap it out.
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                step()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)  # type: ignore[arg-type]
        fresh = seen.keys() - keyed
        keyed |= fresh
        new = {key for key in map(_key, fresh) if key in defined} - reached
        reached |= new
        print(
            f"  {name:<28} {time.perf_counter() - started:6.1f} s  +{len(new)} functions",
            flush=True,
        )
    return reached


def _by_class(allowlist: Dict[str, str]) -> str:
    counts = Counter(reason.split(":", 1)[0] for reason in allowlist.values())
    return ", ".join(f"{name} {counts[name]}" for name in CLASSES)


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    started = time.perf_counter()
    print("reach: running the product entry points under sys.setprofile")
    defined = functions()
    watches = {key: Watch(name, nodes) for key, (name, nodes) in parameters().items()}
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hit = trace(entry_points(scratch), defined, watches)
    elapsed = time.perf_counter() - started
    missed = sorted(defined[key] for key in defined.keys() - hit)
    unlisted = [name for name in missed if name not in ALLOWLIST]
    print(f"reach: {len(hit)}/{len(defined)} functions under src/ reached in {elapsed:.1f} s")
    print(f"allowlist: {len(ALLOWLIST)} entries ({_by_class(ALLOWLIST)})")
    reached = [watch for key, watch in watches.items() if key in hit]
    unset = sorted(f"{w.name}({param}=)" for w in reached for param in w.unset)
    total = sum(len(watch.nodes) for watch in watches.values())
    unreached = total - sum(len(watch.nodes) for watch in reached)
    print(
        f"parameters: {total - unreached - len(unset)}/{total} defaulted parameters "
        f"in {', '.join(PARAM_SCOPE)} set by an entry point ({unreached} more "
        "belong to functions no entry point reached)"
    )
    print(f"parameter allowlist: {len(PARAM_ALLOWLIST)} entries ({_by_class(PARAM_ALLOWLIST)})")
    stale = sorted(name for name in ALLOWLIST if name not in missed)
    stale += sorted(name for name in PARAM_ALLOWLIST if name not in unset)
    if stale:
        print(f"allowlisted but reached or set ({len(stale)}): " + ", ".join(stale))
    errors = [f"{w.name}: {error}" for w in reached for error in w.errors]
    unlisted_params = [name for name in unset if name not in PARAM_ALLOWLIST]
    if unlisted:
        print(f"unreached and not allowlisted ({len(unlisted)}):")
        for name in unlisted:
            print(f"  {name}")
    if unlisted_params:
        print(f"never set and not allowlisted ({len(unlisted_params)}):")
        for name in unlisted_params:
            print(f"  {name}")
    if errors:
        print(f"defaults that did not evaluate ({len(errors)}):")
        for error in errors:
            print(f"  {error}")
    return 1 if unlisted or unlisted_params or errors else 0


if __name__ == "__main__":
    sys.exit(main())
