"""Series-parallel compound CMOS gates.

Construction from boolean expressions, equal-worst-case sizing against a
reference inverter, resistive best/worst delay bounds, common Euler
orderings, and dynamic-node charge sharing.

Sizing follows a recursive budget rule: a network's every conducting
root-to-rail path must add up to the reference device resistance, so a
series node splits its resistance budget equally among its children and
a parallel node hands the full budget to each child.
"""

import functools
import itertools
import math
import operator

from . import Record, boolexpr
from .errors import DomainError, InputError, SizeError, StructureError
from .units import parse_quantity

EULER_INPUT_LIMIT = 12
EULER_SEARCH_LIMIT = 500_000
DUALITY_INPUT_LIMIT = 24
RESISTANCE_INPUT_LIMIT = 18


class Switch(Record):
    _fields = ("name", "width")

    def __init__(self, name, width=1.0):
        if width <= 0:
            raise InputError(f"switch {name!r} needs a positive width")
        self.__dict__.update(name=name, width=width)


class Series(Record):
    _fields = ("children",)

    def __init__(self, children):
        children = tuple(children)
        if len(children) < 2:
            raise StructureError("series node needs >= 2 children")
        self.__dict__["children"] = children


class Parallel(Record):
    _fields = ("children",)

    def __init__(self, children):
        children = tuple(children)
        if len(children) < 2:
            raise StructureError("parallel node needs >= 2 children")
        self.__dict__["children"] = children


def network_inputs(net):
    if isinstance(net, Switch):
        return [net.name]
    out = []
    for c in net.children:
        out.extend(network_inputs(c))
    return out


def network_from_json(obj):
    if not isinstance(obj, dict):
        raise StructureError("network node must be an object")
    if "input" in obj:
        return Switch(obj["input"], parse_quantity(obj.get("width", 1.0)))
    for key, cls in (("series", Series), ("parallel", Parallel)):
        if isinstance(obj.get(key), list):
            return cls(tuple(network_from_json(c) for c in obj[key]))
    raise StructureError(f"network node needs input or a series/parallel list, "
                         f"got {sorted(obj)}")


def evaluate_network(net, assignment) -> bool:
    """True when the switch network conducts under the 0/1 assignment."""
    if isinstance(net, Switch):
        if net.name not in assignment:
            raise InputError(f"assignment misses input {net.name!r}")
        return bool(assignment[net.name])
    if isinstance(net, Series):
        return all(evaluate_network(c, assignment) for c in net.children)
    return any(evaluate_network(c, assignment) for c in net.children)


def network_table(net, tables):
    """Bitset of the patterns where the network conducts; ``tables`` maps
    each switch name to its bitset from ``boolexpr.pattern_tables``."""
    if isinstance(net, Switch):
        return tables[net.name]
    kids = [network_table(c, tables) for c in net.children]
    op = operator.and_ if isinstance(net, Series) else operator.or_
    return functools.reduce(op, kids)


def _literal_name(e):
    if isinstance(e, boolexpr.Var):
        return e.name
    if isinstance(e, boolexpr.Not) and isinstance(e.arg, boolexpr.Var):
        return e.arg.name + "'"
    return None


def sp_from_expr(expr):
    """Switch tree for an AND/OR expression; complements only at inputs."""
    if isinstance(expr, str):
        expr = boolexpr.parse_expr(expr)
    name = _literal_name(expr)
    if name is not None:
        return Switch(name)
    if isinstance(expr, boolexpr.And):
        return Series(tuple(sp_from_expr(a) for a in expr.args))
    if isinstance(expr, boolexpr.Or):
        return Parallel(tuple(sp_from_expr(a) for a in expr.args))
    raise StructureError(f"not a series-parallel AND/OR expression: {expr!r}")


def dual_network(net):
    if isinstance(net, Switch):
        return net
    children = tuple(dual_network(c) for c in net.children)
    return Parallel(children) if isinstance(net, Series) else Series(children)


def _sized(net, r_budget, unit_width):
    # unit_width / width = resistance in reference units
    if isinstance(net, Switch):
        return Switch(net.name, unit_width / r_budget)
    if isinstance(net, Series):
        share = r_budget / len(net.children)
        return Series(tuple(_sized(c, share, unit_width) for c in net.children))
    return Parallel(tuple(_sized(c, r_budget, unit_width) for c in net.children))


class CompoundGate(Record):
    _fields = ("pdn", "pun", "w_n", "w_p", "mu")

    def __init__(self, pdn, pun, w_n=1.0, w_p=4.0, mu=4.0):
        self.__dict__.update(pdn=pdn, pun=pun, w_n=w_n, w_p=w_p, mu=mu)

    def pdn_conducts(self, assignment):
        return evaluate_network(self.pdn, assignment)

    def pun_conducts(self, assignment):
        flipped = {k: 0 if v else 1 for k, v in assignment.items()}
        return evaluate_network(self.pun, flipped)

    def widths(self):
        """Per input: (total nmos width, total pmos width)."""
        out = {}
        for net, idx in ((self.pdn, 0), (self.pun, 1)):
            for sw in _switches(net):
                pair = out.setdefault(sw.name, [0.0, 0.0])
                pair[idx] += sw.width
        return {k: tuple(v) for k, v in out.items()}

    def area(self):
        return sum(s.width for s in _switches(self.pdn)) + \
            sum(s.width for s in _switches(self.pun))

    def area_ratio_vs_reference(self):
        return self.area() / (self.w_n + self.w_p)


def _switches(net):
    if isinstance(net, Switch):
        yield net
    else:
        for c in net.children:
            yield from _switches(c)


def compound_gate(expr, reference=(1.0, 4.0), mu=4.0, check_duality=True) -> CompoundGate:
    """Build and size the PDN/PUN pair realizing the complement of ``expr``.

    ``reference`` is the (w_n, w_p) of the equal-delay reference inverter;
    series paths are sized so their total resistance matches the matching
    reference device.
    """
    w_n, w_p = reference
    if w_n <= 0 or w_p <= 0 or mu <= 0:
        raise InputError("reference widths and mu must be positive")
    shape = sp_from_expr(expr)
    pdn = _sized(shape, 1.0, w_n)                      # budget: R of ref nmos
    pun_budget = mu * w_n / w_p                        # ref pull-up R, nmos units
    pun = _sized(dual_network(shape), pun_budget, mu * w_n)
    gate = CompoundGate(pdn=pdn, pun=pun, w_n=w_n, w_p=w_p, mu=mu)
    if check_duality:
        _check_duality(gate)
    return gate


def _check_duality(gate):
    """Raise StructureError at the first assignment where the PDN and the
    PUN (on complemented inputs) both conduct or both block."""
    names = sorted(set(network_inputs(gate.pdn)))
    if len(names) > DUALITY_INPUT_LIMIT:
        raise SizeError(f"{len(names)} inputs exceeds the duality check bound")
    tables, full = boolexpr.pattern_tables(len(names))
    pdn = network_table(gate.pdn, dict(zip(names, tables)))
    pun = network_table(gate.pun, {x: full ^ t for x, t in zip(names, tables)})
    clash = full & ~(pdn ^ pun)
    if clash:
        bits = boolexpr.pattern_bits((clash & -clash).bit_length() - 1, len(names))
        raise StructureError(f"PDN/PUN not complementary at {dict(zip(names, bits))}")


# --- resistive delay bounds -----------------------------------------------

def _resistance(net, assignment, rho):
    # None means non-conducting
    if isinstance(net, Switch):
        return rho / net.width if assignment[net.name] else None
    if isinstance(net, Series):
        total = 0.0
        for c in net.children:
            r = _resistance(c, assignment, rho)
            if r is None:
                return None
            total += r
        return total
    conductance = 0.0
    for c in net.children:
        r = _resistance(c, assignment, rho)
        if r is not None:
            conductance += 1.0 / r
    return 1.0 / conductance if conductance else None


def _sum(rs):
    # left to right from 0.0, as the enumeration adds; ``sum`` may compensate
    total = 0.0
    for r in rs:
        total += r
    return total


def _read_once_resistances(net, rho):
    """(worst, best, deciding) of a network whose switch names do not repeat,
    each rounded exactly as the enumeration rounds it. ``deciding`` maps each
    switch to the worst resistance over the patterns where turning it off
    stops conduction: every series sibling on its path at its own worst and
    every parallel sibling off. Rounding is monotone, so each maximum lies at
    that one pattern; a parallel node is worst with its worst child alone on
    and best with every child at its best."""
    if isinstance(net, Switch):
        r = rho / net.width
        return r, r, {net.name: r}
    kids = [_read_once_resistances(c, rho) for c in net.children]
    worsts = [w for w, _, _ in kids]
    if isinstance(net, Series):
        deciding = {x: _sum(worsts[:j] + [r] + worsts[j + 1:])
                    for j, (_, _, dec) in enumerate(kids) for x, r in dec.items()}
        return _sum(worsts), _sum(b for _, b, _ in kids), deciding
    deciding = {x: 1.0 / (0.0 + 1.0 / r) for _, _, dec in kids for x, r in dec.items()}
    return (max(1.0 / (0.0 + 1.0 / w) for w in worsts),
            1.0 / _sum(1.0 / b for _, b, _ in kids), deciding)


def resistance_bounds(net, rho=1.0):
    """(worst, best) conduction resistance over all conducting assignments.

    Closed form when no switch name repeats; otherwise enumerated over the
    conducting patterns of up to RESISTANCE_INPUT_LIMIT inputs.
    """
    switches = network_inputs(net)
    names = sorted(set(switches))
    if len(names) == len(switches):
        return _read_once_resistances(net, rho)[:2]
    if len(names) > RESISTANCE_INPUT_LIMIT:
        raise SizeError(f"{len(names)} inputs exceeds the enumeration bound")
    tables, _ = boolexpr.pattern_tables(len(names))
    conducting = boolexpr.set_patterns(network_table(net, dict(zip(names, tables))))
    if not conducting:
        raise StructureError("network never conducts")
    rs = [_resistance(net, dict(zip(names, boolexpr.pattern_bits(k, len(names)))), rho)
          for k in conducting]
    return max(rs), min(rs)


def delay_bounds(gate: CompoundGate, c_l=1.0) -> dict:
    """Resistive-model delay extremes, in units of R_ref * C_L.

    Fall delays discharge through the PDN, rise delays charge through the
    PUN; worst case turns on a single maximum-resistance path, best case
    the strongest parallel combination.
    """
    fall_worst, fall_best = resistance_bounds(gate.pdn, rho=gate.w_n)
    rise_worst, rise_best = resistance_bounds(gate.pun, rho=gate.mu * gate.w_n)
    if not all(0.0 < r < math.inf for r in (fall_worst, fall_best, rise_worst, rise_best)):
        raise DomainError(f"resistance bounds (worst, best) fall ({fall_worst:g}, "
                          f"{fall_best:g}), rise ({rise_worst:g}, {rise_best:g}) are not "
                          "all positive and finite")
    return {
        "fall": {"worst": fall_worst * c_l, "best": fall_best * c_l},
        "rise": {"worst": rise_worst * c_l, "best": rise_best * c_l},
        "ratios": {"fall": fall_worst / fall_best, "rise": rise_worst / rise_best},
    }


# --- Euler orderings ------------------------------------------------------

def network_graph(net):
    """Edge list (u, v, input name) with integer nodes; 0 and 1 are the rails."""
    edges = []
    counter = itertools.count(2)

    def build(n, top, bot):
        if isinstance(n, Switch):
            edges.append((top, bot, n.name))
        elif isinstance(n, Parallel):
            for c in n.children:
                build(c, top, bot)
        else:
            nodes = [top] + [next(counter) for _ in n.children[:-1]] + [bot]
            for c, (u, v) in zip(n.children, itertools.pairwise(nodes)):
                build(c, u, v)

    build(net, 0, 1)
    return edges


def common_euler_ordering(gate: CompoundGate):
    """Deterministic search for one input ordering that is an Euler path of
    both the PDN and PUN graphs, or None when no such ordering exists.

    The backtracking search is exponential in switches, so it examines at
    most EULER_SEARCH_LIMIT edges and raises SizeError past that. Each step
    examines all E edges of a network and the search recurses at most E
    deep, so a search d deep has examined at least d^2 edges: the bound also
    keeps the recursion below sqrt(EULER_SEARCH_LIMIT), about 707 deep."""
    n_inputs = len(set(network_inputs(gate.pdn)))
    if n_inputs > EULER_INPUT_LIMIT:
        raise SizeError(f"{n_inputs} inputs exceeds the Euler search bound")
    pdn_edges = network_graph(gate.pdn)
    pun_edges = network_graph(gate.pun)
    if sorted(l for _, _, l in pdn_edges) != sorted(l for _, _, l in pun_edges):
        return None
    total = len(pdn_edges)
    examined = 0

    def moves(edges, used, at, label=None):
        nonlocal examined
        examined += len(edges)
        if examined > EULER_SEARCH_LIMIT:
            raise SizeError(f"the Euler search examined more than {EULER_SEARCH_LIMIT} "
                            "edges")
        for i, (u, v, lbl) in enumerate(edges):
            if used[i] or (label is not None and lbl != label):
                continue
            if u == at:
                yield i, v, lbl
            elif v == at:
                yield i, u, lbl

    def search(p_at, q_at, p_used, q_used, seq):
        if len(seq) == total:
            return list(seq)
        for pi, p_next, label in sorted(moves(pdn_edges, p_used, p_at),
                                        key=lambda m: m[2]):
            for qi, q_next, _ in moves(pun_edges, q_used, q_at, label):
                p_used[pi] = q_used[qi] = True
                seq.append(label)
                found = search(p_next, q_next, p_used, q_used, seq)
                if found:
                    return found
                seq.pop()
                p_used[pi] = q_used[qi] = False
        return None

    pdn_nodes = sorted({n for u, v, _ in pdn_edges for n in (u, v)})
    pun_nodes = sorted({n for u, v, _ in pun_edges for n in (u, v)})
    for p_start in pdn_nodes:
        for q_start in pun_nodes:
            found = search(p_start, q_start,
                           [False] * total, [False] * total, [])
            if found:
                return found
    return None


# --- charge sharing -------------------------------------------------------

class ChargeShareCase(Record):
    _fields = ("c_out", "c_exposed", "v_dd", "v_internal_init")

    def __init__(self, c_out, c_exposed, v_dd=1.0, v_internal_init=0.0):
        c_exposed = tuple(c_exposed)
        if c_out <= 0:
            raise InputError("c_out must be positive")
        if any(c < 0 for c in c_exposed):
            raise InputError("exposed capacitances must be >= 0")
        self.__dict__.update(c_out=c_out, c_exposed=c_exposed, v_dd=v_dd,
                             v_internal_init=v_internal_init)


def charge_share_voltage(case: ChargeShareCase) -> float:
    """Final voltage of a precharged node after charge redistribution."""
    c_total = case.c_out + sum(case.c_exposed)
    charge = case.c_out * case.v_dd + sum(case.c_exposed) * case.v_internal_init
    return charge / c_total
