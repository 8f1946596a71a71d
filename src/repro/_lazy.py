"""Lazy package exports (PEP 562).

A package declares what it re-exports as ``{submodule: names}`` and
binds :func:`lazy_exports`'s result as its ``__getattr__``, ``__dir__``
and ``__all__``.  Importing the package then loads none of those
submodules: a name's submodule is imported on first access, and the
value is cached in the package namespace so later lookups are plain
attribute reads.  ``from pkg import name`` and ``from pkg import *`` go
through the same hook.
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, exports: "dict[str, tuple[str, ...]]"):
    """``(__getattr__, __dir__, __all__)`` for the package ``namespace``.

    ``exports`` maps a submodule — relative (``".engine"``) or absolute —
    to the names the package re-exports from it.
    """
    package = namespace["__name__"]
    table = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> "list[str]":
        return sorted({*namespace, *table})

    return __getattr__, __dir__, list(table)
