"""``float-format-drift``: persisted results carry full-precision floats.

Campaign results and experiment artifacts are byte-compared — across
resumed runs, across the multiprocess pool, and by CI's determinism
legs.  ``repr(float)`` (what :mod:`json` emits) is exact and stable;
the moment a writer rounds (``round(x, 3)``) or formats
(``f"{x:.3f}"``) a value *before* persisting it, two runs that differ
only below the rounding threshold collide, resumability checks pass
vacuously, and downstream analysis quietly loses precision.

Scope: the modules that write persisted artifacts.  Display layers
(reports, table renderers) format freely — they are not in scope.
Genuinely presentational values inside a writer (e.g. an advisory
wall-clock duration) carry an inline waiver.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.repro_lints.base import Module, Rule, Violation, register

#: format-spec presentation types that lose float precision
_FLOAT_SPEC_RE = re.compile(r"\.\d+[efg%]|[efg%]$")


def _float_spec(spec: str) -> bool:
    return bool(_FLOAT_SPEC_RE.search(spec))


@register
class FloatFormatDriftRule(Rule):
    """Forbid rounding/formatting floats in persisted-result writers."""

    name = "float-format-drift"
    rationale = (
        "persisted artifacts are byte-compared; rounding or formatting "
        "floats before writing destroys precision and makes distinct "
        "runs collide"
    )
    scope = (
        "src/repro/analysis/storage.py",
        "src/repro/campaigns/trials.py",
        "src/repro/experiments/runner.py",
    )

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "round":
                    yield self.violation(
                        module,
                        node,
                        "round() in a persisted-result writer loses "
                        "precision; store repr-exact floats",
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "format"
                    and isinstance(func.value, ast.Constant)
                    and isinstance(func.value.value, str)
                    and _FLOAT_SPEC_RE.search(func.value.value)
                ):
                    yield self.violation(
                        module,
                        node,
                        "float format spec in a persisted-result writer; "
                        "store repr-exact floats",
                    )
            elif isinstance(node, ast.FormattedValue):
                spec = node.format_spec
                if spec is None:
                    continue
                # format_spec is a JoinedStr; only constant specs are
                # inspectable — dynamic specs are rare enough to ignore.
                parts = [
                    v.value
                    for v in spec.values
                    if isinstance(v, ast.Constant) and isinstance(v.value, str)
                ]
                if any(_float_spec(p) for p in parts):
                    yield self.violation(
                        module,
                        node,
                        "float format spec in a persisted-result writer; "
                        "store repr-exact floats",
                    )
