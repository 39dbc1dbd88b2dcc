"""Lazy package re-exports (PEP 562).

A package ``__init__`` names what it re-exports and from which
submodule; each name is imported on first access. Importing one
submodule of the package then costs that submodule alone, not every
sibling the package re-exports — which is what lets ``python -m repro
serve`` start without the batch pipeline or numpy.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Sequence


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Callable[[str], Any]:
    """The module ``__getattr__`` for *package*.

    *exports* maps a submodule's dotted name to the names the package
    re-exports from it. A resolved name is cached on the package, so
    the hook runs once per name.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
