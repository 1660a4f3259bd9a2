"""``registry-bypass``: component classes are constructed via registries.

Schedulers, address mappings, refresh policies and mitigation policies
are registry-backed (:mod:`repro.registry`): ``SCHEDULERS`` /
``MAPPINGS`` / ``REFRESH_POLICIES`` / ``MITIGATIONS`` own the
name→factory mapping, and :class:`repro.config.SystemConfig` resolves
names declaratively.  Direct ``FrFcfsScheduler()``-style construction
outside the defining module silently bypasses that layer: the call
site stops honoring registry aliases, misses factory-side defaulting
(e.g. ``mitigations.make_policy`` wiring), and drifts from what
campaign scenarios can express.

The rule flags any call whose callee *name* is a registered component
class, except inside the module that defines (and registers) it.
Subclassing stays free — only instantiation is routed through the
registries.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from tools.repro_lints.base import Module, Rule, Violation, register

#: Registered component class -> (defining module, registry spelling).
#: The defining module is exempt (it registers the factory); so is
#: ``mitigations/__init__.py``, which builds the MITIGATIONS table.
COMPONENT_CLASSES: Dict[str, tuple] = {
    # controller/scheduler.py — SCHEDULERS
    "FrFcfsScheduler": ("src/repro/controller/scheduler.py", 'SCHEDULERS.get("fr_fcfs")'),
    "FcfsScheduler": ("src/repro/controller/scheduler.py", 'SCHEDULERS.get("fcfs")'),
    "FrFcfsCapScheduler": ("src/repro/controller/scheduler.py", 'SCHEDULERS.get("fr_fcfs_cap")'),
    # dram/address.py — MAPPINGS
    "LinearMapping": ("src/repro/dram/address.py", 'MAPPINGS.get("linear")'),
    "MopMapping": ("src/repro/dram/address.py", 'MAPPINGS.get("mop")'),
    # dram/refresh.py — REFRESH_POLICIES
    "RefreshScheduler": ("src/repro/dram/refresh.py", 'REFRESH_POLICIES.get("periodic")'),
    "StaggeredRefreshScheduler": ("src/repro/dram/refresh.py", 'REFRESH_POLICIES.get("staggered")'),
    # mitigations/* — MITIGATIONS (factory helper: mitigations.make_policy)
    "NoMitigationPolicy": ("src/repro/mitigations/base.py", 'make_policy("none")'),
    "AboOnlyPolicy": ("src/repro/mitigations/abo_only.py", 'make_policy("abo_only")'),
    "AcbRfmPolicy": ("src/repro/mitigations/acb_rfm.py", 'make_policy("abo_acb")'),
    "TpracPolicy": ("src/repro/mitigations/tprac.py", 'make_policy("tprac")'),
    "ObfuscationPolicy": ("src/repro/mitigations/obfuscation.py", 'make_policy("obfuscation")'),
    "PerBankRfmPolicy": ("src/repro/mitigations/rfmpb.py", 'make_policy("rfmpb")'),
    "QpracPolicy": ("src/repro/mitigations/qprac.py", 'make_policy("qprac")'),
}

#: Modules allowed to construct any component directly: the registry
#: assembly points themselves.
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
    """Forbid direct construction of registry-backed components."""

    name = "registry-bypass"
    rationale = (
        "schedulers/mappings/refresh/mitigations are registry-backed; "
        "direct construction bypasses name resolution and factory "
        "defaulting and drifts from what scenarios can express"
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
                f"construct {name} via its registry "
                f"({registry_form}), not directly",
            )
