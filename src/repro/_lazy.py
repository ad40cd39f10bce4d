"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule the moment anything under the package is imported.
Instead it declares where each name lives and installs the two module hooks
built here::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        "repro.map.mapper": ("TechnologyMappingPass", "map_netlist"),
        "repro.map.report": ("MapReport",),
    })

The first access to a name imports its submodule and stores the value in
the package's globals, so later accesses are plain attribute lookups that
never reach ``__getattr__`` again.  ``from package import name`` and
``dir(package)`` see every declared name.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple


def lazy_exports(
    package: str,
    namespace: MutableMapping[str, object],
    sources: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` / ``__dir__`` pair of ``package``.

    ``sources`` maps a submodule to the names the package re-exports from
    it; ``namespace`` is the package's ``globals()``.
    """
    origin: Dict[str, str] = {
        name: module for module, names in sources.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
