"""Lazy package exports: a re-exported name is imported on first use.

Every package ``__init__`` hands :func:`lazy_exports` one table of what it
re-exports, grouped by the module that defines each name, and installs the
returned PEP 562 ``__getattr__``/``__dir__``.  Importing a package then
imports none of its submodules; the first read of a name imports the one
module behind it and stores the value in the package's globals, so every
later read is an ordinary global lookup.  A command therefore loads only
the modules it runs (``docs/architecture.md``, "Cold start").
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping
from typing import Any


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``package``'s ``__all__``, and the ``__getattr__``/``__dir__`` behind it.

    ``table`` maps a module to the names ``package`` re-exports from it,
    each bound as ``from module import name`` would bind it; the names
    listed under ``package`` itself are its submodules.
    """
    namespace = sys.modules[package].__dict__
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == package:
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    # A name defined by the submodule it shares a name with (``topsis`` in
    # ``repro.mcda.topsis``) binds now: importing that submodule from
    # anywhere sets the package attribute to the module, and __getattr__
    # would never run for the name.
    for name, module in where.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return list(where), __getattr__, __dir__
