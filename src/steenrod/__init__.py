"""Computer algebra for the mod-2 Steenrod algebra and its applications.

Modules by topic:

    f2         exact linear and polynomial algebra over the two-element field
    algebra    the Steenrod algebra in the admissible basis
    dual       the Milnor dual, the pairing, sub-Hopf algebras
    action     Steenrod actions on presented polynomial rings
    modules    finite A(1)- and E(1)-modules, Margolis homology, stable types
    charclass  Stiefel-Whitney symmetric functions and primitives
    bundles    the two homogeneous-space bundles and fiber integration
    verify     the named verification suites
    cli        the command-line front end

Importing the package loads none of them.  Each name in ``__all__`` is
imported from its home module on first access, and each command and each
suite imports the modules it runs, so ``import steenrod.cli`` loads only
``cli``, ``verify``, ``action`` and ``f2``.
"""

import importlib

# each public name -> the module that defines it
_HOMES = {
    **dict.fromkeys(("SteenrodElement", "basis", "parse_element"), "algebra"),
    **dict.fromkeys(("DualElement", "milnor_primitive", "pair", "parse_dual"), "dual"),
    **dict.fromkeys(("F2Matrix", "F2Poly", "F2Vector", "PoincareSeries", "WeightedPolyRing"), "f2"),
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
