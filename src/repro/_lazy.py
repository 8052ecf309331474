"""Lazy package surfaces: a package's exported names resolve on first use.

A package ``__init__`` that re-exports its submodules' names by importing
them makes every process that touches *any* submodule pay for *all* of
them: ``import repro.chaos`` used to load the fabric engine and scipy
because ``repro/__init__`` imported ``repro.core.machine``.  Instead, a
package declares where each exported name lives::

    __all__ = lazy_exports(__name__, {
        "machine": ("Machine", "FrontierMachine"),
        "scenario": ("MachineSpec", "frontier_spec"),
    })

and the name resolves the first time it is read (``repro.core.Machine``,
``from repro.core import Machine``, ``from repro.core import *``),
importing only the submodule that defines it — the PEP 562 module
``__getattr__``/``__dir__`` protocol, installed on the package's module
class.  The resolved value is then bound on the package, so later reads
are plain attribute lookups.

The rule this serves (DESIGN.md, "Import what you run"): a package
``__init__`` never imports another subsystem eagerly, and modules import
what they call at module level, so a process loads exactly the
subsystems it runs, and loads them before its first timed operation.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Mapping

__all__ = ["lazy_exports"]


class _LazyPackage(ModuleType):
    """A package module whose exported names import on first access."""

    #: exported name -> dotted submodule path relative to the package.
    _lazy_exports: dict[str, str]

    def __getattr__(self, name: str) -> Any:
        # Reached only for names not yet bound on the package.
        try:
            submodule = self._lazy_exports[name]
        except KeyError:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{self.__name__}.{submodule}"),
                        name)
        ModuleType.__setattr__(self, name, value)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        # The import system binds every loaded submodule onto its package.
        # An export named like a submodule (``repro.core.family``, the
        # function, vs. the module ``repro.core.family``) keeps its name for
        # the export, as it did when the package imported it eagerly.
        if (name in self._lazy_exports and isinstance(value, ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"):
            return
        ModuleType.__setattr__(self, name, value)

    def __dir__(self) -> list[str]:
        return sorted({*ModuleType.__dir__(self), *self._lazy_exports})


def lazy_exports(package: str,
                 exports: Mapping[str, tuple[str, ...]]) -> list[str]:
    """Make ``package`` resolve ``{submodule: names}`` on first access.

    Call it from the package's ``__init__`` with ``__name__``; returns
    the exported names in declaration order, for ``__all__``.
    """
    module = sys.modules[package]
    table = {name: sub for sub, names in exports.items() for name in names}
    module._lazy_exports = table  # before the class swap: read by __getattr__
    module.__class__ = _LazyPackage
    return list(table)
