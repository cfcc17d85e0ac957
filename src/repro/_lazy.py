"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` that re-exports names from its submodules hands
:func:`lazy_exports` a table of those names grouped by the submodule
that defines them, the same grouping a ``from .x import (...)``
statement would spell::

    from .._lazy import lazy_exports

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "config": ("ArchParams", "Flow", "MemPoolConfig"),
        "metrics": ("GroupResult", "normalize"),
    })

The contract (PEP 562):

* importing the package imports none of the submodules in the table;
* the first access of an exported name (``package.Flow``, ``from
  package import Flow``) imports its submodule, and the value is then
  stored in the package namespace, so later accesses are plain
  attribute lookups that never reach ``__getattr__`` again;
* ``submodules`` names submodules exported as themselves (``from
  package import trace`` gives the module);
* ``__all__`` is the sorted set of exported names and ``dir()`` lists
  them before first use; any other name raises :class:`AttributeError`,
  and ``from package import sub`` of a submodule outside the table
  falls back to the ordinary submodule import.

Table keys are module paths relative to the package (``"core.config"``
from ``repro``), so a package can also re-export a subpackage's names.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping


def lazy_exports(
    package: str,
    table: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], object], Callable[[], list], list]:
    """``(__getattr__, __dir__, __all__)`` for package ``package``.

    Args:
        package: The package's ``__name__``; its module must already be
            in :data:`sys.modules` (true while its ``__init__`` runs).
        table: Relative submodule path -> names that submodule defines.
        submodules: Submodules exported as themselves.
    """
    owners = {
        name: (module, name) for module, names in table.items() for name in names
    }
    owners.update((name, (name, None)) for name in submodules)
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module_name, attr = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(f".{module_name}", package)
        if attr is not None:
            value = getattr(value, attr)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__, sorted(owners)
