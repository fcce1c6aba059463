"""Logical effort: template derivation from sized gates, closed-form
NAND/NOR efforts, path delay and stage-count optimization, size
back-propagation, and two-branch fork design.

All capacitances are in units of the gate capacitance of a minimum-width
transistor (C_g); device widths double as C_g counts. Resistances are in
units of the minimum-width nMOS channel resistance.
"""

import math

from . import Record
from .errors import DesignError, DomainError, InputError, SizeError

# Only template derivation, ``derive_template`` and its helpers, uses
# ``gates`` and ``boolexpr``: each helper imports them when it is called, so
# the other analyses never load them.

RHO_DEFAULT = 3.59  # optimum stage effort for p_inv = 1, Cd = Cg


class PullupLoad(Record):
    """Always-on pMOS load (ratioed/pseudo-nMOS style pull-up)."""
    _fields = ("width",)

    def __init__(self, width=1.0):
        self.__dict__["width"] = width


class GateTemplate(Record):
    _fields = ("name", "g_rise", "g_fall", "p_rise", "p_fall", "c_in")

    def __init__(self, name, g_rise, g_fall, p_rise, p_fall, c_in):
        self.__dict__.update(name=name, g_rise=g_rise, g_fall=g_fall, p_rise=p_rise,
                             p_fall=p_fall, c_in=c_in)

    def g(self, inp, transition=None):
        gr, gf = self.g_rise[inp], self.g_fall[inp]
        if transition == "rise":
            return gr
        if transition == "fall":
            return gf
        if abs(gr - gf) > 1e-12 * max(abs(gr), abs(gf), 1.0):
            raise InputError(
                f"{self.name or 'gate'} input {inp} is asymmetric "
                f"(g_rise={gr:.4g}, g_fall={gf:.4g}); pick a transition")
        return gr

    def p(self, transition=None):
        if transition == "rise":
            return self.p_rise
        if transition == "fall":
            return self.p_fall
        return max(self.p_rise, self.p_fall)

    def stage(self, inp, b=1.0, transition=None):
        return Stage(g=self.g(inp, transition), p=self.p(transition), b=b,
                     name=self.name)

    @classmethod
    def symmetric(cls, name, g, p, c_in=1.0, inputs=("a",)):
        return cls(name=name, g_rise={i: g for i in inputs},
                   g_fall={i: g for i in inputs}, p_rise=p, p_fall=p,
                   c_in={i: c_in for i in inputs})


def _pull_resistances(drive_net, oppose, mu, rho_drive):
    """Worst-case drive resistance per critical input and overall.

    Iterates over the conducting patterns of the driving network's
    switches (``rho_drive`` is 1 for nmos nets, mu for pmos nets); the
    opposing side (dual network evaluated on complemented inputs, or an
    always-on load) subtracts conductance when it fights the transition.
    An input decides a pattern when turning it off stops the conduction.

    A read-once driving network takes the closed form instead when the
    opposing side never conducts with it and the worst pattern still
    completes the transition: the effective resistance then rises with the
    drive resistance, so each maximum lies where the drive's does.
    """
    from . import boolexpr
    from .gates import (RESISTANCE_INPUT_LIMIT, _read_once_resistances, _resistance,
                        network_inputs, network_table)
    switches = network_inputs(drive_net)
    names = sorted(set(switches))
    if len(names) > RESISTANCE_INPUT_LIMIT:
        raise SizeError(f"{len(names)} inputs exceeds the enumeration bound")
    tables, full = boolexpr.pattern_tables(len(names))
    inputs = dict(zip(names, tables))
    conducts = network_table(drive_net, inputs)
    load = oppose.width / mu if isinstance(oppose, PullupLoad) else None

    def g_of(r):
        return 1.0 / r if load is None else 1.0 / r - load

    # an opposing network that names an input the driving one lacks is left
    # to the enumeration, which reads that input only on the patterns it must
    blocks = oppose is None or load is not None or (
        set(network_inputs(oppose)) <= inputs.keys()
        and not conducts & network_table(oppose, {x: full ^ t for x, t in inputs.items()}))
    if blocks and len(names) == len(switches):
        worst, _, deciding = _read_once_resistances(drive_net, rho_drive)
        if g_of(worst) > 0:
            return {x: 1.0 / g_of(r) for x, r in deciding.items()}, 1.0 / g_of(worst)
    decides = {x: set(boolexpr.set_patterns(
        conducts & inputs[x] & ~network_table(drive_net, {**inputs, x: 0})))
        for x in names}
    per_input, overall = {}, None
    for k in boolexpr.set_patterns(conducts):
        a = dict(zip(names, boolexpr.pattern_bits(k, len(names))))
        g_eff = g_of(_resistance(drive_net, a, rho_drive))
        if oppose is not None and load is None:
            flipped = {x: 1 - v for x, v in a.items()}
            rho_opp = mu if rho_drive == 1.0 else 1.0
            r_opp = _resistance(oppose, flipped, rho_opp)
            if r_opp is not None:
                g_eff -= 1.0 / r_opp
        if g_eff <= 0:
            continue  # this setting cannot complete the transition
        r_eff = 1.0 / g_eff
        overall = r_eff if overall is None else max(overall, r_eff)
        for x in names:
            if k in decides[x]:
                per_input[x] = max(per_input.get(x, 0.0), r_eff)
    return per_input, overall


def _output_adjacent_width(net):
    from .gates import Parallel, Switch

    def width(n):
        if isinstance(n, Switch):
            return n.width
        if isinstance(n, Parallel):
            return sum(width(c) for c in n.children)
        return width(n.children[0])
    return width(net)


def _input_caps(gate):
    from .gates import Switch
    caps = {}
    nets = [gate.pdn] + ([] if isinstance(gate.pun, PullupLoad) else [gate.pun])
    for net in nets:
        stack = [net]
        while stack:
            n = stack.pop()
            if isinstance(n, Switch):
                caps[n.name] = caps.get(n.name, 0.0) + n.width
            else:
                stack.extend(n.children)
    return caps


def derive_template(gate: "CompoundGate", reference: "CompoundGate",
                    cd_over_cg: float = 1.0, name: str = "") -> GateTemplate:
    """Per-input logical effort and parasitic delay of a sized gate.

    Normalizes drive-resistance * input-capacitance against the reference
    gate (its per-input C_in times its worst pull-down resistance). The
    parasitic term counts only devices whose drains touch the output
    node, weighted by ``cd_over_cg``.
    """
    mu = gate.mu
    _check_networks(gate, reference)
    fall_r, fall_worst = _pull_resistances(gate.pdn, gate.pun, mu, 1.0)
    if isinstance(gate.pun, PullupLoad):
        r_up = mu / gate.pun.width
        rise_r = {x: r_up for x in _input_caps(gate)}
        rise_worst = r_up
    else:
        rise_r, rise_worst = _pull_resistances(gate.pun, gate.pdn, mu, mu)

    ref_caps = _input_caps(reference)
    ref_c_in = next(iter(ref_caps.values()))
    _, ref_r = _pull_resistances(reference.pdn, None, reference.mu, 1.0)
    for net, r in (("pull-down", fall_worst), ("pull-up", rise_worst),
                   ("reference pull-down", ref_r)):
        if r is None:
            raise DomainError(f"the {net} network completes no transition: no conducting "
                              "pattern has a positive effective conductance")
    norm = ref_r * ref_c_in

    caps = _input_caps(gate)
    c_par = _output_adjacent_width(gate.pdn)
    if isinstance(gate.pun, PullupLoad):
        c_par += gate.pun.width
    else:
        c_par += _output_adjacent_width(gate.pun)

    g_rise, g_fall = {}, {}
    for x, c in caps.items():
        if x in rise_r:
            g_rise[x] = rise_r[x] * c / norm
        if x in fall_r:
            g_fall[x] = fall_r[x] * c / norm
    for x in caps:  # inputs that never decide a transition inherit the worst case
        g_rise.setdefault(x, rise_worst * caps[x] / norm if rise_worst else float("nan"))
        g_fall.setdefault(x, fall_worst * caps[x] / norm if fall_worst else float("nan"))
    tpl = GateTemplate(
        name=name, g_rise=g_rise, g_fall=g_fall,
        p_rise=rise_worst * c_par * cd_over_cg / norm,
        p_fall=fall_worst * c_par * cd_over_cg / norm,
        c_in=caps,
    )
    if not all(map(math.isfinite, [*g_rise.values(), *g_fall.values(), tpl.p_rise,
                                   tpl.p_fall])):
        raise DomainError(f"the template is not finite: g_rise {g_rise}, g_fall {g_fall}, "
                          f"p_rise {tpl.p_rise:g}, p_fall {tpl.p_fall:g}")
    return tpl


def _check_networks(gate, reference):
    """InputError when a pull-down and its pull-up network switch different
    inputs; DomainError when a drive resistance (rho / width of a switch or
    of a pull-up load) is not positive and finite, or its conductance is not
    finite, as no transition completes through it."""
    from .gates import _switches, network_inputs
    for who, g in (("gate", gate), ("reference", reference)):
        if not isinstance(g.pun, PullupLoad):
            down, up = set(network_inputs(g.pdn)), set(network_inputs(g.pun))
            if down != up:
                raise InputError(
                    f"the {who}'s pull-down and pull-up networks switch different inputs: "
                    f"only the pull-down switches {sorted(down - up)}, "
                    f"only the pull-up {sorted(up - down)}")
    for net, network, rho in (("pull-down", gate.pdn, 1.0), ("pull-up", gate.pun, gate.mu),
                              ("reference pull-down", reference.pdn, 1.0)):
        for part in [network] if isinstance(network, PullupLoad) else _switches(network):
            if not (part.width > 0 and 0.0 < rho / part.width < math.inf
                    and part.width / rho < math.inf):
                what = "its load" if isinstance(part, PullupLoad) else f"switch {part.name!r}"
                raise DomainError(
                    f"the {net} network completes no transition through {what}: its "
                    f"resistance rho / width = {rho:g} / {part.width:g} is not positive "
                    "and finite with a finite inverse")


def nand_nor_effort(n: int, mu: float) -> dict:
    """Closed-form NAND/NOR logical efforts for an n-input gate."""
    if n < 1 or mu <= 0:
        raise InputError("need n >= 1 and mu > 0")
    nand_per = (n + mu) / (1 + mu)
    nor_per = (1 + n * mu) / (1 + mu)
    if not all(map(math.isfinite, (nand_per, nor_per, n * nand_per, n * nor_per))):
        raise DomainError(f"efforts for n={n:.4g}, mu={mu:.4g} are not finite")
    return {
        "nand": {"per_input": nand_per, "total": n * nand_per},
        "nor": {"per_input": nor_per, "total": n * nor_per},
    }


class Stage(Record):
    _fields = ("g", "p", "b", "name")

    def __init__(self, g, p, b=1.0, name=""):
        if g <= 0 or b < 1:
            raise InputError("stage needs g > 0 and branching >= 1")
        self.__dict__.update(g=g, p=p, b=b, name=name)


class PathSpec(Record):
    _fields = ("stages", "c_in", "c_load")

    def __init__(self, stages, c_in, c_load):
        stages = tuple(stages)
        if not stages:
            raise InputError("path needs at least one stage")
        if c_in <= 0 or c_load <= 0:
            raise InputError("c_in and c_load must be positive")
        self.__dict__.update(stages=stages, c_in=c_in, c_load=c_load)

    @property
    def h(self):
        return self.c_load / self.c_in


def path_delay(path: PathSpec) -> dict:
    """Equal-stage-effort delay: F = G*B*H, D = N*F^(1/N) + sum(p)."""
    g = math.prod(s.g for s in path.stages)
    b = math.prod(s.b for s in path.stages)
    h = path.h
    f = g * b * h
    n = len(path.stages)
    f_hat = f ** (1.0 / n)
    p_total = sum(s.p for s in path.stages)
    return {
        "G": g, "B": b, "H": h, "F": f, "N": n,
        "f_hat": f_hat, "p_total": p_total,
        "d_hat": n * f_hat + p_total,
        "stage_efforts": [f_hat] * n,
    }


def size_stages(path: PathSpec, f_hat: float = None) -> list:
    """Back-propagated per-stage input capacitances at equal stage effort."""
    if f_hat is None:
        f_hat = path_delay(path)["f_hat"]
    caps = [0.0] * len(path.stages)
    c_next = path.c_load
    for i in range(len(path.stages) - 1, -1, -1):
        s = path.stages[i]
        caps[i] = s.g * s.b * c_next / f_hat
        c_next = caps[i]
    return caps


def _parity_ok(n, polarity):
    if polarity == "any":
        return True
    if polarity == "non_inverting":
        return n % 2 == 0
    if polarity == "inverting":
        return n % 2 == 1
    raise InputError(f"unknown polarity constraint {polarity!r}")


def optimize_path(path: PathSpec, allow_added_inverters: bool = True,
                  polarity: str = "any", rho: float = RHO_DEFAULT,
                  p_inv: float = 1.0) -> dict:
    """Pick the stage count (appending reference inverters) minimizing D.

    Candidate counts are the original length plus the neighborhood of
    log_rho(F), filtered by the polarity constraint (all path gates are
    taken as inverting, so polarity pins the parity of N). Ties go to the
    fewest stages.
    """
    base = path_delay(path)
    f, n0 = base["F"], base["N"]
    candidates = set()
    if _parity_ok(n0, polarity):
        candidates.add(n0)
    if allow_added_inverters:
        n_star = round(math.log(f) / math.log(rho)) if f > 1 else n0
        for k in (n_star - 1, n_star, n_star + 1):
            if k >= n0 and _parity_ok(k, polarity):
                candidates.add(k)
    if not candidates:
        k = n0
        while not _parity_ok(k, polarity):
            k += 1
        candidates.add(k)

    def d_of(k):
        return k * f ** (1.0 / k) + base["p_total"] + (k - n0) * p_inv

    best = min(sorted(candidates), key=lambda k: (d_of(k), k))
    stages = list(path.stages) + [Stage(g=1.0, p=p_inv, name="inv")] * (best - n0)
    final = PathSpec(stages=tuple(stages), c_in=path.c_in, c_load=path.c_load)
    result = path_delay(final)
    return {
        "n": best, "added_inverters": best - n0, "d": result["d_hat"],
        "f_hat": result["f_hat"], "stage_caps": size_stages(final),
        "candidates": {k: d_of(k) for k in sorted(candidates)},
    }


class ForkSpec(Record):
    """Two-branch amplifying fork: the branches differ in length by one
    inverter (m+1 vs m) so the outputs have opposite polarity. ``m`` is the
    short-branch length, 0 to choose it automatically."""
    _fields = ("c_in_total", "branch_load", "m", "p_inv")

    def __init__(self, c_in_total, branch_load, m=0, p_inv=1.0):
        if c_in_total <= 0 or branch_load <= 0:
            raise DesignError("fork needs positive input cap and loads")
        self.__dict__.update(c_in_total=c_in_total, branch_load=branch_load, m=m, p_inv=p_inv)


def _fork_delays(m, x, spec):
    long_d = (m + 1) * (spec.branch_load / x) ** (1.0 / (m + 1)) + (m + 1) * spec.p_inv
    short_d = m * (spec.branch_load / (spec.c_in_total - x)) ** (1.0 / m) + m * spec.p_inv
    return long_d, short_d


def design_fork(spec: ForkSpec, rho: float = RHO_DEFAULT, tol: float = 1e-3) -> dict:
    """Split the input capacitance between the two branches so their
    delays match (bisection to |dD| < tol); branch length from the
    log_rho estimate +/- 1, smallest worst-case delay wins."""
    if spec.m:
        candidates = [spec.m]
    else:
        ratio = 2.0 * spec.branch_load / spec.c_in_total
        if not math.isfinite(ratio):
            raise DomainError(f"branch_load / c_in_total = {spec.branch_load:g} / "
                              f"{spec.c_in_total:g} overflows")
        m0 = math.log(ratio) / math.log(rho)
        candidates = sorted({max(1, round(m0) - 1), max(1, round(m0)),
                             max(1, round(m0) + 1)})
    best = None
    for m in candidates:
        lo, hi = 1e-9 * spec.c_in_total, (1 - 1e-9) * spec.c_in_total
        x = 0.5 * spec.c_in_total
        for _ in range(200):
            x = 0.5 * (lo + hi)
            long_d, short_d = _fork_delays(m, x, spec)
            if abs(long_d - short_d) < tol:
                break
            if long_d > short_d:
                lo = x
            else:
                hi = x
        else:
            raise DesignError(f"fork split did not converge for m={m}")
        d_fork = max(long_d, short_d)
        if best is None or d_fork < best["d_fork"] - 1e-12:
            f_long = (spec.branch_load / x) ** (1.0 / (m + 1))
            x_short = spec.c_in_total - x
            f_short = (spec.branch_load / x_short) ** (1.0 / m)
            best = {
                "m": m, "x": x, "x_short": x_short, "d_fork": d_fork,
                "f_long": f_long, "f_short": f_short,
                "long_caps": [x * f_long ** i for i in range(m + 1)],
                "short_caps": [x_short * f_short ** i for i in range(m)],
            }
    return best


def transition_chain(templates_inputs, output_transition):
    """Stage views for a specified output transition, alternating rise and
    fall backwards through inverting stages."""
    n = len(templates_inputs)
    stages = []
    for i, (tpl, inp, b) in enumerate(templates_inputs):
        # stage i output transition: alternates, ending at output_transition
        flips = n - 1 - i
        tr = output_transition
        if flips % 2 == 1:
            tr = "fall" if output_transition == "rise" else "rise"
        stages.append(tpl.stage(inp, b=b, transition=tr))
    return tuple(stages)
