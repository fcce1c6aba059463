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


def __getattr__(name):
    """Import an analysis module on first use (PEP 562), so that a process
    loads only the analyses it runs."""
    if name in _ANALYSIS_MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
