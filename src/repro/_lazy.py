"""Lazy package namespaces (PEP 562).

Each ``repro`` package ``__init__`` holds one export map, from every
submodule to the public names it defines, and hands it to
:func:`lazy_exports`. A name's submodule is imported the first time the
name is read, so importing a package costs only what the caller then
uses: the timing core (``sim``, ``core``, ``serve``, ...) starts without
numpy or the functional layer (DESIGN.md §5).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["EXPORTS", "lazy_exports"]

#: package -> {public name: dotted path of the submodule that defines
#: it, or of the name itself when the name is a submodule}.
EXPORTS: Dict[str, Dict[str, str]] = {}


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` serving ``package``'s map.

    ``exports`` maps a submodule (dotted, relative to ``package``) to the
    names it defines; ``submodules`` are public names that are
    submodules themselves. ``__getattr__`` imports a name's submodule on
    first read and caches the object in the package namespace, so it
    runs once per name; it also resolves any other submodule
    (``repro.telemetry.report``) and raises ``AttributeError`` for
    unknown names.
    """
    origin: Dict[str, str] = {}
    for module, names in exports.items():
        for name in names:
            if name in origin:
                raise ValueError(f"{package}: {name!r} exported twice")
            origin[name] = f"{package}.{module}"
    for name in submodules:
        origin[name] = f"{package}.{name}"
    EXPORTS[package] = origin
    namespace = sys.modules[package]

    def __getattr__(name: str) -> object:
        own = f"{package}.{name}"
        path = origin.get(name)
        if path is None:
            # Not exported: a submodule nobody has imported yet?
            if not name.startswith("__"):
                try:
                    return importlib.import_module(own)
                except ModuleNotFoundError as exc:
                    if exc.name != own:
                        raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(path)
        value = module if path == own else getattr(module, name)
        setattr(namespace, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(namespace)) | set(origin))

    return __getattr__, __dir__, list(origin)
