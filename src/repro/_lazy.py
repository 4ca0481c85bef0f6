"""Lazy package exports (PEP 562): a name resolves on first access.

Each package ``__init__`` maps the modules it re-exports to the names
they provide, and installs the ``__getattr__`` / ``__dir__`` pair
:func:`lazy_exports` returns.  ``import repro`` therefore loads no
subpackage, and a name imports its module only when it is first read;
``__all__`` and every public name stay as they were.  An attribute
that is not an export falls back to a submodule of the same name, so
``import repro; repro.sim.machine`` still works.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` exporting ``exports``
    (``{module: names}``); a resolved name is cached in the package."""
    table = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        namespace = vars(sys.modules[package])
        module = table.get(name)
        if module is not None:
            value = namespace[name] = getattr(importlib.import_module(module), name)
            return value
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as e:
            if e.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *table})

    return __getattr__, __dir__
