"""Lazy package namespaces (PEP 562): a name's module loads on first access.

Every ``repro`` package ``__init__`` lists its public names with the module
that defines each, instead of importing those modules up front.  So
``import repro.cli`` costs only the modules the invoked command reaches, and
NumPy, SciPy and networkx load on the code paths that use them.  The table
is also the package's one export list: ``__all__`` is derived from it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list], list]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps each module to the public names it defines.  Any other
    attribute resolves to the submodule of that name, so ``repro.meg.base``
    works after a bare ``import repro.meg``.  A resolved value is stored in
    the package namespace, so ``__getattr__`` runs once per name.
    ``__all__`` is the sorted list of the names in ``exports``.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name in origin:
            value = getattr(importlib.import_module(origin[name]), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
