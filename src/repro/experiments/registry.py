"""Declarative artifact registry for the experiment subsystem.

Every experiment module under :mod:`repro.experiments` self-describes
by exporting an ``ARTIFACT`` :class:`ArtifactSpec` naming the paper
artifact it reproduces plus the keyword arguments for its quick-scale
(laptop) run.  The full scale is the harness's own ``run()`` defaults,
which ``repro <name>`` and ``suite --full`` both call.
:func:`discover` walks the package once and returns the complete
registry, so orchestration code (`runner.run_suite`, the CLI) never
hand-maintains an experiment list — the 6-of-14 drift the old
``_quick_experiments()`` dict suffered from cannot recur.

Specs are plain data (module path + kwargs, no callables), so suite
execution can ship them to worker processes without pickling closures.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

#: Registry keys of the paper's fourteen reproduced artifacts (fig6 is
#: a diagram, not an experiment).  Extensions (e.g. ``obfuscation``)
#: register on top of these.
PAPER_ARTIFACTS = (
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table2",
    "table5",
    "scorecard",
)

SCALES = ("quick", "full")


@dataclass(frozen=True)
class ArtifactSpec:
    """Self-description one experiment module exports as ``ARTIFACT``."""

    name: str
    artifact: str
    title: str
    module: str = ""
    quick: Mapping[str, Any] = field(default_factory=dict)

    def kwargs(self, scale: str = "quick") -> Dict[str, Any]:
        """Keyword arguments for ``run()`` at the given scale; ``full``
        passes none, so ``run()`` keeps its own defaults."""
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
        return dict(self.quick) if scale == "quick" else {}

    def load_runner(self):
        """Import the module and return its ``run`` callable."""
        return getattr(importlib.import_module(self.module), "run")


#: Submodules that are infrastructure, not artifact harnesses.
_NON_ARTIFACT_MODULES = frozenset({"common", "registry", "runner"})

_cache: Dict[str, ArtifactSpec] = {}


def iter_experiment_modules() -> List[str]:
    """Dotted paths of every harness submodule (infrastructure excluded)."""
    package = importlib.import_module("repro.experiments")
    return [
        f"{package.__name__}.{info.name}"
        for info in pkgutil.iter_modules(package.__path__)
        if info.name not in _NON_ARTIFACT_MODULES
    ]


def discover(refresh: bool = False) -> Dict[str, ArtifactSpec]:
    """Import every experiment module and collect its ``ARTIFACT`` spec.

    A module that exposes a top-level ``run()`` but no ``ARTIFACT`` is a
    registration bug and raises, so new harnesses cannot silently drop
    out of the suite.
    """
    if _cache and not refresh:
        return dict(_cache)
    specs: Dict[str, ArtifactSpec] = {}
    for dotted in iter_experiment_modules():
        module = importlib.import_module(dotted)
        spec = getattr(module, "ARTIFACT", None)
        if spec is None:
            if callable(getattr(module, "run", None)):
                raise RuntimeError(
                    f"{dotted} defines run() but exports no ARTIFACT spec; "
                    "add one so the suite covers it"
                )
            continue
        if not spec.module:
            spec = dataclasses.replace(spec, module=dotted)
        if spec.name in specs:
            raise RuntimeError(
                f"duplicate artifact name {spec.name!r}: "
                f"{specs[spec.name].module} and {spec.module}"
            )
        specs[spec.name] = spec
    _cache.clear()
    _cache.update(specs)
    return dict(specs)


def get(name: str) -> ArtifactSpec:
    """Look up one registered artifact by name."""
    specs = discover()
    if name not in specs:
        raise KeyError(f"unknown artifact {name!r}; have {sorted(specs)}")
    return specs[name]


def names() -> List[str]:
    """Sorted registry keys."""
    return sorted(discover())
