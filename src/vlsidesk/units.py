"""SI-suffixed quantity parsing and fixed-precision formatting."""

import math
import re
import sys

from .errors import QuantityError

_SI = {
    "": 1.0, "a": 1e-18, "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "µ": 1e-6,
    "m": 1e-3, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
}

_FLOAT_MAX = sys.float_info.max  # float() of a larger int overflows
_QTY = re.compile(r"^\s*([-+]?\d*\.?\d+(?:[eE][-+]?\d+)?)\s*([a-zA-Zµ]?)\s*$")


def parse_quantity(value):
    """Return ``value`` as a float in base units.

    Accepts plain numbers or strings with a single SI suffix: ``"50k"``,
    ``"20f"``, ``"0.05n"``. Unit names are not part of the syntax; case
    matters only where SI does (m vs M). Values that are not finite, such
    as a JSON ``1e400``, raise ``QuantityError``.
    """
    if isinstance(value, bool):
        raise QuantityError(f"expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        x = float(value) if abs(value) <= _FLOAT_MAX else math.inf
    elif isinstance(value, str) and (m := _QTY.match(value)) and m[2] in _SI:
        x = float(m[1]) * _SI[m[2]]
    elif isinstance(value, str):
        raise QuantityError(f"cannot parse quantity {value!r}")
    else:
        raise QuantityError(f"expected a number or SI string, got {type(value).__name__}")
    if not math.isfinite(x):
        raise QuantityError(f"quantity {value!r} is not a finite number")
    return x


def format_number(x):
    """Format a float with 6 significant digits; integers pass through."""
    if not isinstance(x, float):
        return x
    if not math.isfinite(x):
        return str(x)
    if x.is_integer() and abs(x) < 1e15:
        # keep exact integral floats readable (192.0 -> 192)
        return int(x)
    return float(f"{x:.6g}")
