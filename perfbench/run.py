"""Run the benchmark on one workload, or on all three.

    python3 perfbench/run.py --workload perf_fig10 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the simulator is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it reports the
per-layer metrics of a traced pass.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--workload all`` runs each workload in its own process and prints a
summary table instead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("perf_fig10", "aes_fig9", "covert_table2")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh interpreter that only sets up, for setup_s.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import harness

    if args.setup_probe:
        harness.setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; then one summary table."""
    rows = []
    for name in NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    print("\nsummary (seed %d, trace %d)" % (args.seed, args.trace))
    for name, result in rows:
        cells = [f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
        if not args.trace:
            cells.append(f"failed_frac {result['failed'] / result['attempted']:.4g} ratio")
        print(f"  {name:<14} " + "  ".join(cells))
    return 0 if all(result["correct"] for _name, result in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
