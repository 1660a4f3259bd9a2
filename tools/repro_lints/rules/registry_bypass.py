"""``registry-bypass``: mitigation policies are constructed by name.

Mitigation policies are addressed by name: ``repro.mitigations``'
``MITIGATIONS`` table owns the name→class mapping, and
``make_policy`` / ``policy_factory`` build a policy from it.  Direct
``TpracPolicy()``-style construction outside the defining module
bypasses that layer: the call site misses factory-side defaulting
(``policy_factory`` derives TB-Window, BAT and per-channel seeds from
the device) and drifts from what campaign scenarios can express.

The rule flags any call whose callee *name* is a mitigation policy
class, except inside the module that defines it.  Subclassing stays
free — only instantiation is routed through the table.  The
controller's own components (its scheduler, mapping and refresh
machinery) have one implementation each, which the controller builds
directly, so they are not listed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from tools.repro_lints.base import Module, Rule, Violation, register

#: Mitigation policy class -> (defining module, by-name spelling).
#: The defining module is exempt; so is ``mitigations/__init__.py``,
#: which builds the MITIGATIONS table.
COMPONENT_CLASSES: Dict[str, tuple] = {
    # mitigations/* — MITIGATIONS (factory helper: mitigations.make_policy)
    "NoMitigationPolicy": ("src/repro/mitigations/base.py", 'make_policy("none")'),
    "AboOnlyPolicy": ("src/repro/mitigations/abo_only.py", 'make_policy("abo_only")'),
    "AcbRfmPolicy": ("src/repro/mitigations/acb_rfm.py", 'make_policy("abo_acb")'),
    "TpracPolicy": ("src/repro/mitigations/tprac.py", 'make_policy("tprac")'),
    "ObfuscationPolicy": ("src/repro/mitigations/obfuscation.py", 'make_policy("obfuscation")'),
    "PerBankRfmPolicy": ("src/repro/mitigations/rfmpb.py", 'make_policy("rfmpb")'),
    "QpracPolicy": ("src/repro/mitigations/qprac.py", 'make_policy("qprac")'),
}

#: Modules allowed to construct any policy directly: the table's own
#: module.
_ASSEMBLY_MODULES = ("src/repro/mitigations/__init__.py",)


def _callee_name(node: ast.Call) -> str:
    """Bare or attribute-qualified callee class name, else ''."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@register
class RegistryBypassRule(Rule):
    """Forbid direct construction of mitigation policies."""

    name = "registry-bypass"
    rationale = (
        "mitigation policies are built by name through repro.mitigations; "
        "direct construction bypasses factory defaulting and drifts from "
        "what scenarios can express"
    )
    scope = ("src/repro/",)

    def applies_to(self, path: str) -> bool:
        if not super().applies_to(path):
            return False
        if path in _ASSEMBLY_MODULES:
            return False
        return True

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node)
            entry = COMPONENT_CLASSES.get(name)
            if entry is None:
                continue
            defining_module, registry_form = entry
            if module.path == defining_module:
                continue
            yield self.violation(
                module,
                node,
                f"construct {name} by name "
                f"({registry_form}), not directly",
            )
