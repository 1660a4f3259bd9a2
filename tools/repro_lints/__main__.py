"""CLI entry point: ``python -m tools.repro_lints [paths...]``.

Exit status 0 when clean, 1 when any violation survives its waivers —
so the module slots directly into ``make lints`` and CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from tools.repro_lints import RULES, lint_paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lints",
        description="Project-specific invariant lints for the repro simulator.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro", "tools/reach.py"],
        help="files or directories to lint (default: src/repro and tools/reach.py)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="list the registered rules with their rationale and exit",
    )
    args = parser.parse_args(argv)

    if args.explain:
        for rule_cls in RULES:
            print(f"{rule_cls.name}")
            print(f"    {rule_cls.rationale}")
            if rule_cls.scope:
                print(f"    scope: {', '.join(rule_cls.scope)}")
        return 0

    violations = lint_paths(args.paths)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
