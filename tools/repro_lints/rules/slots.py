"""``slots-required``: hot-path record classes must declare ``__slots__``.

The controller allocates one :class:`MemRequest` per memory access —
millions per campaign.  Without ``__slots__`` each instance carries a
per-object ``__dict__`` (~2x the memory, slower attribute access);
with it, accidental attribute creation (a typo'd assignment in a
scheduler) raises instead of silently spawning state the rest of the
pipeline never sees.  The sanitizer's per-bank shadow state rides the
same hot path when enabled.

The rule pins specific (module, class) pairs rather than guessing at
"hotness" from heuristics: extending it is one entry in
:data:`SLOTTED_CLASSES`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from tools.repro_lints.base import Module, Rule, Violation, register

#: module path -> class names that must declare ``__slots__``.
SLOTTED_CLASSES: Dict[str, Tuple[str, ...]] = {
    "src/repro/controller/request.py": ("MemRequest",),
    "src/repro/dram/sanitizer.py": ("_BankState",),
}


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for target in targets
        ):
            return True
    return False


@register
class SlotsRequiredRule(Rule):
    """Require ``__slots__`` on designated hot-path classes."""

    name = "slots-required"
    rationale = (
        "hot-path records are allocated millions of times per campaign; "
        "__slots__ halves their footprint and turns attribute typos "
        "into errors"
    )
    scope = tuple(SLOTTED_CLASSES)

    def check(self, module: Module) -> Iterator[Violation]:
        required = set(SLOTTED_CLASSES.get(module.path, ()))
        if not required:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in required and not _declares_slots(node):
                yield self.violation(
                    module,
                    node,
                    f"hot-path class {node.name} must declare __slots__",
                )
