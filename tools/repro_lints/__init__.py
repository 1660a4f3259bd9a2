"""Custom AST lint suite enforcing this repo's simulation invariants.

Generic linters check style; this suite checks the *project's* rules —
determinism of the simulation core, by-name mitigation policy
construction, ``__slots__`` on hot-path records, and full-precision
floats in persisted artifacts.  Rules are AST-based (no imports of the
checked code), plugin-registered (one module per concern under
``rules/``), and waivable per line with ``# repro-lint: allow(rule)``.

Run standalone::

    python -m tools.repro_lints            # lint src/repro and tools/reach.py
    python -m tools.repro_lints path ...   # lint specific files/trees
    python -m tools.repro_lints --explain  # list rules + rationale

or via ``make lints`` (also part of ``make lint`` / CI's lint job).
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence

from tools.repro_lints.base import RULES, Module, Rule, Violation, run_rules
import tools.repro_lints.rules  # noqa: F401  (registers the rule suite)

__all__ = ["RULES", "Module", "Rule", "Violation", "lint_paths", "lint_source"]


def _repo_relative(path: str, root: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), root)
    return rel.replace(os.sep, "/")


def _python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of .py files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                out.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(filenames)
                    if f.endswith(".py")
                )
        else:
            out.append(path)
    return out


def lint_source(
    source: str, path: str, rules: Optional[Iterable[Rule]] = None
) -> List[Violation]:
    """Lint one in-memory module; ``path`` selects rule scopes."""
    tree = ast.parse(source, filename=path)
    module = Module(path=path, source=source, tree=tree)
    active = list(rules) if rules is not None else [cls() for cls in RULES]
    return run_rules(module, active)


def lint_paths(
    paths: Sequence[str], root: Optional[str] = None
) -> List[Violation]:
    """Lint files/directories; paths are scoped repo-relative to ``root``
    (default: the current working directory)."""
    base = os.path.abspath(root or os.getcwd())
    rules = [cls() for cls in RULES]
    violations: List[Violation] = []
    for filename in _python_files(paths):
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
        rel = _repo_relative(filename, base)
        violations.extend(lint_source(source, rel, rules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
