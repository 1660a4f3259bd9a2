"""Determinism rules for the simulation core.

The repo's result identity rests on bit-reproducible runs: scenario IDs
are content hashes, campaign results are byte-compared on resume, and
CI byte-compares artifacts across processes.  These rules keep the
three classic nondeterminism leaks out of the hot packages
(``core`` / ``controller`` / ``dram`` / ``prac`` / ``mitigations``):

* ``unseeded-random`` — the module-level :mod:`random` functions (and
  ``random.Random()`` without a seed) draw from process-global state;
  any use makes results depend on import order and host entropy.
  Seeded ``random.Random(seed)`` instances are fine — that is how the
  obfuscation defense injects *reproducible* noise.
* ``wall-clock`` — ``time.time()`` & friends tie results to the host
  clock.  Simulation time is ``Engine.now``; wall-clock belongs only in
  harness/reporting layers.
* ``iteration-order`` — iterating a ``set`` observes hash order, which
  varies across processes for str-keyed sets (PYTHONHASHSEED).  Iterate
  ``sorted(...)`` instead, or keep a list/dict (insertion-ordered).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lints.base import Module, Rule, Violation, register

HOT_SCOPE = (
    "src/repro/core/",
    "src/repro/controller/",
    "src/repro/dram/",
    "src/repro/prac/",
    "src/repro/mitigations/",
)


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _attr_of(node: ast.AST, modules: tuple) -> str:
    """``"mod.attr"`` when node is an Attribute on one of ``modules``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ):
        return f"{node.value.id}.{node.attr}"
    return ""


@register
class UnseededRandomRule(Rule):
    """Forbid process-global RNG state in the simulation core."""

    name = "unseeded-random"
    rationale = (
        "module-level random.* draws from process-global state; results "
        "would depend on import order and host entropy instead of the "
        "scenario seed"
    )
    scope = HOT_SCOPE

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.violation(
                    module,
                    node,
                    "import the module and build seeded random.Random(seed) "
                    "instances; from-imports hide the global-state functions",
                )
            elif isinstance(node, ast.Call):
                dotted = _attr_of(node.func, ("random",))
                if not dotted:
                    continue
                if dotted == "random.Random":
                    if not node.args and not node.keywords:
                        yield self.violation(
                            module,
                            node,
                            "random.Random() without a seed is entropy-"
                            "seeded; pass an explicit seed",
                        )
                else:
                    yield self.violation(
                        module,
                        node,
                        f"{dotted}() uses the process-global RNG; use a "
                        "seeded random.Random(seed) instance",
                    )


@register
class WallClockRule(Rule):
    """Forbid host-clock reads in the simulation core."""

    name = "wall-clock"
    rationale = (
        "simulation time is Engine.now; host-clock reads make results "
        "machine- and load-dependent"
    )
    scope = HOT_SCOPE

    _FORBIDDEN = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
    }

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            dotted = _attr_of(node, ("time", "datetime"))
            if dotted in self._FORBIDDEN:
                yield self.violation(
                    module,
                    node,
                    f"{dotted} reads the host clock; simulation code must "
                    "use Engine.now",
                )
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                names = {alias.name for alias in node.names}
                clocky = sorted(
                    names
                    & {n.split(".", 1)[1] for n in self._FORBIDDEN if n.startswith("time.")}
                )
                if clocky:
                    yield self.violation(
                        module,
                        node,
                        f"from time import {', '.join(clocky)} brings host-"
                        "clock reads into simulation code",
                    )


def _set_expression(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a set (literal, comp, or set())."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _is_name(node.func, "set"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra: s1 | s2, s1 & s2, s1 - s2 — only flag when a
        # side is itself recognizably a set, to avoid int arithmetic.
        return _set_expression(node.left) or _set_expression(node.right)
    return False


@register
class IterationOrderRule(Rule):
    """Forbid iterating sets (hash order) in the simulation core."""

    name = "iteration-order"
    rationale = (
        "set iteration observes hash order, which differs across "
        "processes for str elements (PYTHONHASHSEED); iterate "
        "sorted(...) or an insertion-ordered list/dict"
    )
    scope = HOT_SCOPE

    def _iter_targets(self, tree: ast.Module) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield gen.iter
            elif (
                isinstance(node, ast.Call)
                and _is_name(node.func, "enumerate")
                and node.args
            ):
                yield node.args[0]

    def check(self, module: Module) -> Iterator[Violation]:
        for target in self._iter_targets(module.tree):
            if _set_expression(target):
                yield self.violation(
                    module,
                    target,
                    "iterating a set observes hash order; wrap in sorted() "
                    "or keep an ordered container",
                )
