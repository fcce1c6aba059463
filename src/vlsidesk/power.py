"""Switching-activity and power estimation: exact signal probabilities,
dynamic/short-circuit/leakage/adiabatic power, supply-scaling factors,
bus splitting, and gray-code transition accounting."""

import functools
import itertools
import math

from . import Record
from .errors import DomainError, InputError, SizeError

ENUMERATION_LIMIT = 24
GRAY_CYCLE_LIMIT = 20


class PowerEnv(Record):
    _fields = ("v_dd", "f_clk", "v_swing")

    def __init__(self, v_dd, f_clk, v_swing=0.0):  # v_swing 0 means v_dd
        if v_dd <= 0 or f_clk <= 0:
            raise InputError("v_dd and f_clk must be positive")
        if v_swing == 0.0:
            v_swing = v_dd
        if not 0 < v_swing <= v_dd:
            raise InputError("need 0 < v_swing <= v_dd")
        self.__dict__.update(v_dd=v_dd, f_clk=f_clk, v_swing=v_swing)


class LoadPoint(Record):
    """``beta`` counts transitions per cycle, both directions."""
    _fields = ("c", "beta")

    def __init__(self, c, beta):
        if c < 0:
            raise InputError("capacitance must be >= 0")
        if not 0 <= beta <= 2:
            raise InputError("activity must be within [0, 2] transitions/cycle")
        self.__dict__.update(c=c, beta=beta)


def signal_probability(expr, probabilities) -> dict:
    """Exact output probability by Shannon expansion of the truth table
    along the sorted variables, plus the random-cycle activity
    beta = 2 p (1-p). Inputs are taken spatially and temporally
    independent."""
    from . import boolexpr  # no other analysis here needs boolexpr
    if isinstance(expr, str):
        expr = boolexpr.parse_expr(expr)
    names = expr.variables()
    if len(names) > ENUMERATION_LIMIT:
        raise SizeError(f"{len(names)} inputs exceeds the enumeration bound")
    missing = [n for n in names if n not in probabilities]
    if missing:
        raise InputError(f"no probability for inputs {missing}")
    for n in names:
        if not 0.0 <= probabilities[n] <= 1.0:
            raise InputError(f"p({n}) out of [0, 1]")
    tables, full = boolexpr.pattern_tables(len(names))
    probs = [probabilities[n] for n in names]

    @functools.cache
    def cofactor(level, table):
        # ``table`` covers the patterns of names[level:]; its upper half is
        # the cofactor with names[level] = 1
        if level == len(names):
            return float(table)
        half = 1 << (len(names) - 1 - level)
        return probs[level] * cofactor(level + 1, table >> half) \
            + (1.0 - probs[level]) * cofactor(level + 1, table & ((1 << half) - 1))

    p = cofactor(0, boolexpr.expr_table(expr, dict(zip(names, tables)), full))
    return {"p": p, "beta": 2.0 * p * (1.0 - p)}


def switching_power(loads, env: PowerEnv, activity="transitions") -> float:
    """P = 1/2 * V_swing * V_DD * f * sum(C_i * beta_i).

    ``activity='zero_to_one'`` reads each load's activity as alpha_0->1
    (one charging event per pair), numerically identical to beta = 2*alpha.
    """
    if activity not in ("transitions", "zero_to_one"):
        raise InputError(f"unknown activity convention {activity!r}")
    scale = 2.0 if activity == "zero_to_one" else 1.0
    cb = sum(l.c * l.beta * scale for l in loads)
    return 0.5 * env.v_swing * env.v_dd * env.f_clk * cb


def short_circuit_power(k: float, v_t: float, env: PowerEnv,
                        tau_in: float, tau_out: float = 0.0,
                        beta: float = 1.0) -> float:
    """Triangular (Veendrick) crowbar model.

    Per input transition the rail-to-rail current, integrated over the
    linear input ramp, dissipates E = k * tau_in * (V_DD - 2 V_t)^3 / 24;
    the output transition time does not enter this variant (accepted for
    interface symmetry). Zero when the supply cannot turn both devices on
    at once.
    """
    if tau_in < 0 or tau_out < 0 or beta < 0:
        raise InputError("transition times and activity must be >= 0")
    if env.v_dd <= 2.0 * v_t:
        return 0.0
    try:
        power = k * tau_in * (env.v_dd - 2.0 * v_t) ** 3 / 24.0 * beta * env.f_clk
    except OverflowError:
        power = math.inf
    if not math.isfinite(power):
        raise DomainError("short-circuit power is not a finite number")
    return power


def voltage_scaling_factors(v_from: float, v_to: float, v_t: float) -> dict:
    """Reduction factors when lowering the supply from v_from to v_to:
    switching scales with V^2, crowbar with V*(V - 2Vt)^2."""
    if v_to <= v_t:
        raise InputError("v_to must stay above the threshold")
    try:
        switching = (v_from / v_to) ** 2
        sc = (v_from * (v_from - 2 * v_t) ** 2) / (v_to * (v_to - 2 * v_t) ** 2) \
            if v_to > 2.0 * v_t else 0.0
    except (OverflowError, ZeroDivisionError):  # v_to and the threshold term underflow
        switching = sc = math.inf
    if not (math.isfinite(switching) and math.isfinite(sc)):
        raise DomainError("voltage scaling factors are not finite numbers")
    if v_to <= 2.0 * v_t:
        sc = math.inf  # no crowbar current is left at v_to
    return {"switching_reduction": switching, "short_circuit_reduction": sc}


def leakage_stack(i0: float, lambda_d: float, s_swing: float, v_dd: float) -> dict:
    """Two stacked off devices: the internal node settles where both leak
    equally, v_x = (1+lambda)/(1+2 lambda) * V_DD; the DIBL-driven ratio
    against a single off device is 10^(-lambda * v_x / S)."""
    if min(i0, s_swing, v_dd) <= 0 or lambda_d < 0:
        raise InputError("parameters must be positive (lambda_d >= 0)")
    v_x = (1.0 + lambda_d) / (1.0 + 2.0 * lambda_d) * v_dd
    ratio = 10.0 ** (-lambda_d * v_x / s_swing)
    return {"v_x": v_x, "stack_over_single_ratio": ratio}


def adiabatic_energy(r_on: float, c: float, v_cmax: float, t_ramp: float,
                     n_outputs_switching: int = 1) -> float:
    """E = n * (R C / T) * C * V^2 for a slow supply ramp through the
    conducting network resistance."""
    if t_ramp <= 0:
        raise InputError("ramp time must be positive")
    if min(r_on, c) < 0 or n_outputs_switching < 0:
        raise InputError("r_on, c and the output count must be >= 0")
    try:
        energy = n_outputs_switching * (r_on * c / t_ramp) * c * v_cmax**2
    except OverflowError:
        energy = math.inf
    if not math.isfinite(energy):
        raise DomainError("adiabatic energy is not a finite number")
    return energy


def bus_split(n_modules: int, m_buses: int, locality: float = 0.8) -> dict:
    """Power saving of splitting one bus into m segments with pass
    switches between neighbors; ``locality`` is the fraction of traffic
    that stays inside a segment."""
    if not 1 <= m_buses <= n_modules:
        raise InputError("need 1 <= m <= n")
    if not 0 <= locality <= 1:
        raise InputError("locality is a fraction")
    near, far = locality, 1.0 - locality
    saving = 1.0 - (near + 2.0 * far) / m_buses - far * m_buses / n_modules
    m_opt = math.sqrt(n_modules * (near + 2.0 * far) / far) if far else float(n_modules)
    if not math.isfinite(m_opt):
        raise DomainError("the optimal bus count is not a finite number")

    def saving_at(m):
        return 1.0 - (near + 2.0 * far) / m - far * m / n_modules

    best_int = max((m for m in (math.floor(m_opt), math.ceil(m_opt))
                    if 1 <= m <= n_modules),
                   key=saving_at, default=m_buses)
    return {"saving_percent": saving * 100.0, "optimal_m": m_opt,
            "optimal_m_integer": best_int,
            "optimal_saving_percent": saving_at(best_int) * 100.0}


def gray_code(n_bits: int, sequence=None) -> dict:
    """Gray encoding b ^ (b >> 1) and the binary-vs-gray transition counts
    along a value sequence (full counting cycle by default, up to
    GRAY_CYCLE_LIMIT bits)."""
    if n_bits < 1:
        raise InputError("need at least one bit")
    if sequence is None:
        if n_bits > GRAY_CYCLE_LIMIT:
            raise SizeError(f"a full {n_bits}-bit cycle exceeds the gray-code cycle "
                            f"bound of {GRAY_CYCLE_LIMIT} bits")
        sequence = range(1 << n_bits)
    for v in sequence:
        if v < 0 or v >> n_bits:
            raise InputError(f"value {v} out of range for {n_bits} bits")

    def gray(b):
        return b ^ (b >> 1)

    def transitions(values):
        return sum((a ^ b).bit_count() for a, b in itertools.pairwise(values))

    binary_t = transitions(sequence)
    gray_t = transitions([gray(v) for v in sequence])
    return {
        "codes": [gray(v) for v in sequence],
        "binary_transitions": binary_t,
        "gray_transitions": gray_t,
        "saved": binary_t - gray_t,
    }
