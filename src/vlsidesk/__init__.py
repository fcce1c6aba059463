"""Desk-scale VLSI analysis toolkit.

Closed-form device, interconnect, gate-sizing, timing, power, SRAM and
test-logic calculations, exposed as a library and a batch CLI.
"""

import importlib

from .errors import (
    DesignError,
    DomainError,
    GeometryError,
    InfeasibleError,
    InputError,
    NetlistError,
    SizeError,
    SolverError,
    StructureError,
    VlsiError,
)

_ANALYSIS_MODULES = ("device", "gates", "interconnect", "effort", "timing", "power",
                     "memory", "testability")

__all__ = [
    *_ANALYSIS_MODULES,
    "VlsiError",
    "DomainError",
    "GeometryError",
    "StructureError",
    "SolverError",
    "InfeasibleError",
    "InputError",
    "SizeError",
    "NetlistError",
    "DesignError",
]

__version__ = "0.1.0"


class Record:
    """Base of the analysis records. ``_fields`` names a record's fields in
    order; ``__init__`` stores them in that order in ``__dict__``, the only
    way to set them, since instances are read-only. Records of the same
    class are equal when their ``__dict__`` are, and hash and ``repr`` go
    by ``_fields``."""

    _fields = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def __getattr__(name):
    """Import an analysis module on first use (PEP 562), so that a process
    loads only the analyses it runs."""
    if name in _ANALYSIS_MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
