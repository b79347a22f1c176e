"""Exact-arithmetic Schwartz forms in the Fock model.

Coefficients live in the Laurent ring Q(i, sqrt2)[pi, 1/pi]; nothing is ever
evaluated in floating point except the lattice-enumeration bounding heuristics,
whose output is re-checked exactly.

The names below are imported on first access (PEP 562), so importing a
submodule such as fockforms.theta does not load the form layers.
"""

from importlib import import_module

_EXPORTS = {
    "Scalar": "fockforms.scalars",
    "QQ": "fockforms.rational",
    "MixedForm": "fockforms.multilinear",
    "SpaceParams": "fockforms.multilinear",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
