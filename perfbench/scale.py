"""Seeded case generator and independent oracles for the ``scale`` workload.

``generate(seed)`` returns one pass: a fixed list of families and sizes,
with every random choice (tree shapes, netlists, expressions, widths,
polynomials) drawn from ``random.Random(seed)``. The program under test
receives only the case dicts; each case carries a ``check`` built from an
oracle that shares no code with ``vlsidesk``:

- Elmore delay: an O(n) downstream-capacitance recomputation;
- ATPG: netlists whose detecting vector, or untestability, is known by
  construction, plus a plug-back through an independent simulator;
- fault simulation: a bit-parallel simulator over all vectors at once;
- signal probability: Shannon expansion over the cubes of the SOP;
- gate sizing, delay bounds and effort templates: closed forms for
  read-once series-parallel networks;
- LFSRs: polynomials proved primitive by GF(2) arithmetic, so the period
  is 2^n - 1, and states from multiplication by x modulo the polynomial.

Sizes are fixed per pass so that a pass costs about the same under every
seed; only structure is random.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable

REL_TOL = 1e-9


@dataclass(frozen=True)
class ScaleCase:
    family: str
    case: dict
    check: Callable  # report -> None, or a message naming the first mismatch


def _close(got, want):
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL,
                                                         abs_tol=1e-300)


def _expect_values(expected):
    """Check report["results"][k]["value"] against ``expected`` (floats within
    REL_TOL, everything else exactly)."""
    def check(report):
        for key, want in expected.items():
            got = report["results"][key]["value"]
            if isinstance(want, float):
                ok = _close(got, want)
            elif isinstance(want, dict):
                ok = isinstance(got, dict) and got.keys() == want.keys() and all(
                    _close(got[k], v) if isinstance(v, float) else got[k] == v
                    for k, v in want.items())
            else:
                ok = got == want
            if not ok:
                return f"{key}: got {got!r}, want {want!r}"
        return None
    return check


# --- RC trees ----------------------------------------------------------------

def _elmore_oracle(edges, caps, sink):
    """tau = sum over the sink's path edges of r * downstream capacitance."""
    parent = {c: (p, r) for p, c, r in edges}
    down = dict(caps)
    for _, c, _ in reversed(edges):          # edges list children after parents
        p = parent[c][0]
        down[p] = down.get(p, 0.0) + down.get(c, 0.0)
    tau, node = 0.0, sink
    while node in parent:
        p, r = parent[node]
        tau += r * down.get(node, 0.0)
        node = p
    return tau


def _path_weight(edges, n):
    """Per node: sum of subtree sizes over the edges from it up to the root.

    The seed's Elmore costs about n times this weight at the sink, so the
    sink is picked by weight to keep the work per case steady across seeds.
    """
    size = [1] * n
    for p, c in reversed(edges):
        size[p] += size[c]
    weight = [0] * n
    for p, c in edges:
        weight[c] = weight[p] + size[c]
    return weight


def _rc_case(rng, links, n, sink):
    edges = [[f"n{p}", f"n{c}", round(rng.uniform(1.0, 1e3), 3)] for p, c in links]
    caps = {f"n{i}": rng.uniform(1e-15, 1e-13) for i in range(n) if rng.random() < 0.9}
    case = {"schema": 1, "analysis": "elmore",
            "params": {"root": "n0", "edges": edges, "caps": caps, "sink": f"n{sink}"}}
    tau = _elmore_oracle([(p, c, r) for p, c, r in edges], caps, f"n{sink}")
    return case, _expect_values({"delay": tau})


def rc_bushy(rng, n):
    """Shallow, wide tree: nodes take 1-5 children in breadth-first order, so
    depth is about log3 n. The sink is a leaf whose path weight is within 2%
    of n / 2; trees without one are drawn again."""
    while True:
        links, queue, nxt = [], [0], 1
        while nxt < n:
            u = queue.pop(0)
            for _ in range(rng.randint(1, 5)):
                if nxt < n:
                    links.append((u, nxt))
                    queue.append(nxt)
                    nxt += 1
        weight = _path_weight(links, n)
        has_child = {p for p, _ in links}
        leaves = [i for i in range(1, n) if i not in has_child
                  and abs(2 * weight[i] - n) <= n / 50]
        if leaves:
            return _rc_case(rng, links, n, rng.choice(leaves))


def rc_deep(rng, n):
    """A spine of 0.8 n nodes with short stubs spread one per stratum; the
    sink is the spine's end."""
    spine = int(0.8 * n)
    links = [(i - 1, i) for i in range(1, spine)]
    stubs = n - spine
    stride = spine / stubs
    for k in range(stubs):
        links.append((int(k * stride + rng.random() * stride), spine + k))
    return _rc_case(rng, links, n, spine - 1)


# --- gate netlists: independent simulator ------------------------------------

_OPS = {
    "and": lambda xs, m: _fold(lambda a, b: a & b, xs),
    "or": lambda xs, m: _fold(lambda a, b: a | b, xs),
    "nand": lambda xs, m: m ^ _fold(lambda a, b: a & b, xs),
    "nor": lambda xs, m: m ^ _fold(lambda a, b: a | b, xs),
    "xor": lambda xs, m: _fold(lambda a, b: a ^ b, xs),
    "xnor": lambda xs, m: m ^ _fold(lambda a, b: a ^ b, xs),
    "not": lambda xs, m: m ^ xs[0],
    "buf": lambda xs, m: xs[0],
}


def _fold(op, xs):
    acc = xs[0]
    for x in xs[1:]:
        acc = op(acc, x)
    return acc


def simulate_bits(netlist, vectors, fault=None):
    """Output words of a netlist over all ``vectors`` at once: bit j of each
    word is the value under vector j. Gates are listed in topological order.
    ``fault`` is (net, value) and pins that net."""
    m = (1 << len(vectors)) - 1
    val = {}
    for k, name in enumerate(netlist["inputs"]):
        val[name] = sum(1 << j for j, v in enumerate(vectors) if v[k])
    if fault is not None and fault[0] in val:
        val[fault[0]] = m if fault[1] else 0
    for g in netlist["gates"]:
        word = _OPS[g["kind"]]([val[i] for i in g["inputs"]], m)
        if fault is not None and g["output"] == fault[0]:
            word = m if fault[1] else 0
        val[g["output"]] = word
    return [val[o] for o in netlist["outputs"]]


def _detects(netlist, vector, fault):
    return simulate_bits(netlist, [vector]) != simulate_bits(netlist, [vector], fault)


def _random_logic(rng, sources, count, prefix):
    """``count`` random gates over ``sources``, favouring recent nets."""
    nets, gates = list(sources), []
    for k in range(count):
        kind = rng.choice(("and", "or", "nand", "nor", "xor", "xnor", "not", "buf"))
        width = 1 if kind in ("not", "buf") else rng.randint(2, 3)
        window = nets[-12:]
        ins = rng.sample(window, min(width, len(window)))
        if len(ins) < width:
            continue
        out = f"{prefix}{k}"
        gates.append({"kind": kind, "inputs": ins, "output": out})
        nets.append(out)
    return gates


def atpg(rng, n, where):
    """ATPG case whose answer is known by construction.

    Literal gates (buf or not per input) feed an AND tree, so the tree output
    is 1 for exactly one vector v. A stuck-at-0 on any tree net is detected
    by v alone. A tautology r = l OR NOT l joins the final AND; stuck-at
    faults on NOT l, and stuck-at-1 on r, are untestable. Side logic reads
    only the primary inputs and drives extra outputs, so it cannot observe
    tree faults. ``where`` places v among the 2^n patterns (input 0 is the
    most significant bit): "early" in the first 1/64, "late" in the last
    1/64; "untestable" makes the search visit all 2^n.
    """
    span = 1 << n
    if where == "early":
        index = rng.randrange(span // 64)
    else:
        index = span - 1 - rng.randrange(span // 64)
    v = [(index >> (n - 1 - k)) & 1 for k in range(n)]
    inputs = [f"i{k}" for k in range(n)]
    gates = [{"kind": "buf" if v[k] else "not", "inputs": [inputs[k]], "output": f"l{k}"}
             for k in range(n)]
    level = [f"l{k}" for k in range(n)]
    rng.shuffle(level)
    tree_nets, t = list(level), 0
    while len(level) > 1:
        width = min(rng.randint(2, 3), len(level))
        out = f"t{t}"
        t += 1
        gates.append({"kind": "and", "inputs": level[:width], "output": out})
        level = level[width:] + [out]
        tree_nets.append(out)
    j = rng.randrange(n)
    gates += [{"kind": "not", "inputs": [f"l{j}"], "output": "rn"},
              {"kind": "or", "inputs": [f"l{j}", "rn"], "output": "r"},
              {"kind": "and", "inputs": [level[0], "r"], "output": "y"}]
    tree_nets.append("y")
    side = _random_logic(rng, inputs, n, "s")
    gates += side
    outputs = ["y"] + [g["output"] for g in side[-2:]]
    netlist = {"inputs": inputs, "gates": gates, "outputs": outputs}
    if where == "untestable":
        fault = rng.choice([("rn", 0), ("rn", 1), ("r", 1)])
        want = {"testable": False, "vector": None}
    else:
        fault = (rng.choice(tree_nets), 0)
        want = {"testable": True, "vector": v}
    case = {"schema": 1, "analysis": "atpg",
            "params": {"netlist": netlist, "fault": {"net": fault[0], "value": fault[1]}}}
    expected = _expect_values(want)

    def check(report):
        diff = expected(report)
        if diff is None and want["testable"] and not _detects(netlist, v, fault):
            diff = f"vector {v} does not detect {fault} on plug-back"
        return diff
    return case, check


def fault_sim(rng, n_inputs, n_gates, n_vectors):
    """Random netlist; every stuck-at fault on every net; random vectors."""
    inputs = [f"i{k}" for k in range(n_inputs)]
    gates = _random_logic(rng, inputs, n_gates, "g")
    read = {i for g in gates for i in g["inputs"]}
    outputs = [g["output"] for g in gates if g["output"] not in read]
    nets = inputs + [g["output"] for g in gates]
    faults = [(net, val) for net in nets for val in (0, 1)]
    rng.shuffle(faults)
    vectors = [[rng.randint(0, 1) for _ in inputs] for _ in range(n_vectors)]
    netlist = {"inputs": inputs, "gates": gates, "outputs": outputs}
    good = simulate_bits(netlist, vectors)
    flips = [[g ^ b for g, b in zip(good, simulate_bits(netlist, vectors, f))]
             for f in faults]
    want = [{"vector": vec,
             "detected": [f"{f[0]}/SA{f[1]}" for f, d in zip(faults, flips)
                          if any((w >> j) & 1 for w in d)]}
            for j, vec in enumerate(vectors)]
    case = {"schema": 1, "analysis": "fault_simulate",
            "params": {"netlist": netlist, "vectors": vectors,
                       "faults": [{"net": f[0], "value": f[1]} for f in faults]}}
    return case, _expect_values({"per_vector": want})


# --- boolean functions -------------------------------------------------------

def _shannon(cubes, probs):
    """P(OR of cubes) by Shannon expansion; a cube is a frozenset of
    (variable, polarity) literals."""
    memo = {}

    def prob(cs):
        if not cs:
            return 0.0
        if frozenset() in cs:
            return 1.0
        if cs in memo:
            return memo[cs]
        var = min(name for c in cs for name, _ in c)
        high = frozenset(c - {(var, 1)} for c in cs if (var, 0) not in c)
        low = frozenset(c - {(var, 0)} for c in cs if (var, 1) not in c)
        p = probs[var] * prob(high) + (1.0 - probs[var]) * prob(low)
        memo[cs] = p
        return p
    return prob(frozenset(cubes))


def signal_prob(rng, n):
    """Random SOP over n variables, every variable used, 2-4 literals a cube."""
    names = [f"x{k}" for k in range(n)]
    rng.shuffle(names)
    cubes, i = [], 0
    while i < n:
        width = rng.randint(2, 4)
        cubes.append([(v, int(rng.random() >= 0.3)) for v in names[i:i + width]])
        i += width
    for cube in cubes[:rng.randint(1, 3)]:      # shared variables between cubes
        extra = rng.choice(names)
        if all(extra != v for v, _ in cube):
            cube.append((extra, rng.randint(0, 1)))
    expr = " + ".join(" ".join(v + ("" if pol else "'") for v, pol in c) for c in cubes)
    probs = {v: round(rng.uniform(0.05, 0.95), 6) for v in sorted(names)}
    p = _shannon([frozenset(c) for c in cubes], probs)
    case = {"schema": 1, "analysis": "signal_probability",
            "params": {"expr": expr, "probabilities": probs}}
    return case, _expect_values({"p": p, "beta": 2.0 * p * (1.0 - p)})


# --- read-once series-parallel gates -----------------------------------------
# A network is ("in", name, width) or ("series"|"parallel", [children]).

def _aoi_shape(rng, n):
    """OR of AND groups over n distinct inputs; some groups nest an OR."""
    names = [f"a{k}" for k in range(n)]
    groups, i = [], 0
    while i < n:
        width = min(rng.randint(2, 4), n - i)
        groups.append(names[i:i + width])
        i += width
    terms = []
    for g in groups:
        if len(g) >= 3 and rng.random() < 0.4:
            terms.append(("series", [("in", g[0], 1.0), ("parallel", [("in", x, 1.0) for x in g[1:]])]))
        elif len(g) == 1:
            terms.append(("in", g[0], 1.0))
        else:
            terms.append(("series", [("in", x, 1.0) for x in g]))
    return ("parallel", terms) if len(terms) > 1 else terms[0]


def _expr(net):
    kind, *rest = net
    if kind == "in":
        return rest[0]
    inner = [_expr(c) for c in rest[0]]
    return " ".join(f"({e})" for e in inner) if kind == "series" else " + ".join(inner)


def _dual(net):
    if net[0] == "in":
        return net
    return ("parallel" if net[0] == "series" else "series", [_dual(c) for c in net[1]])


def _size(net, budget, unit):
    """Equal-worst-case sizing: series splits the resistance budget evenly."""
    if net[0] == "in":
        return ("in", net[1], unit / budget)
    share = budget / len(net[1]) if net[0] == "series" else budget
    return (net[0], [_size(c, share, unit) for c in net[1]])


def _worst(net, rho):
    if net[0] == "in":
        return rho / net[2]
    rs = [_worst(c, rho) for c in net[1]]
    return sum(rs) if net[0] == "series" else max(rs)


def _best(net, rho):
    if net[0] == "in":
        return rho / net[2]
    rs = [_best(c, rho) for c in net[1]]
    return sum(rs) if net[0] == "series" else 1.0 / sum(1.0 / r for r in rs)


def _critical(net, rho):
    """Per input x: the largest resistance of a conducting setting in which
    turning x off stops conduction (siblings in series at their worst,
    siblings in parallel off)."""
    if net[0] == "in":
        return {net[1]: rho / net[2]}
    out = {}
    worst = [_worst(c, rho) for c in net[1]]
    for k, child in enumerate(net[1]):
        rest = sum(worst) - worst[k] if net[0] == "series" else 0.0
        for x, r in _critical(child, rho).items():
            out[x] = r + rest
    return out


def _widths(net, out, slot):
    if net[0] == "in":
        out.setdefault(net[1], [0.0, 0.0])[slot] += net[2]
    else:
        for c in net[1]:
            _widths(c, out, slot)
    return out


def _adjacent(net):
    if net[0] == "in":
        return net[2]
    if net[0] == "parallel":
        return sum(_adjacent(c) for c in net[1])
    return _adjacent(net[1][0])


def _to_json(net):
    if net[0] == "in":
        return {"input": net[1], "width": net[2]}
    return {net[0]: [_to_json(c) for c in net[1]]}


def _sized_pair(shape, mu, w_n=1.0, w_p=None):
    w_p = mu * w_n if w_p is None else w_p
    return _size(shape, 1.0, w_n), _size(_dual(shape), mu * w_n / w_p, mu * w_n)


def gate_compound(rng, n):
    shape = _aoi_shape(rng, n)
    mu = rng.choice((2.0, 2.5, 3.0))
    pdn, pun = _sized_pair(shape, mu, 1.0, mu)
    widths = _widths(pun, _widths(pdn, {}, 0), 1)
    area = sum(a + b for a, b in widths.values())
    want = {"widths": {k: {"nmos": v[0], "pmos": v[1]} for k, v in sorted(widths.items())},
            "area": area, "area_ratio_vs_reference": area / (1.0 + mu)}
    case = {"schema": 1, "analysis": "compound_gate",
            "params": {"expr": _expr(shape), "w_n": 1.0, "w_p": mu, "mu": mu}}
    plain = _expect_values({"area": area, "area_ratio_vs_reference": want["area_ratio_vs_reference"]})

    def check(report):
        got = report["results"]["widths"]["value"]
        if got.keys() != want["widths"].keys() or any(
                not (_close(got[k]["nmos"], w["nmos"]) and _close(got[k]["pmos"], w["pmos"]))
                for k, w in want["widths"].items()):
            return f"widths: got {got!r}, want {want['widths']!r}"
        return plain(report)
    return case, check


def gate_delay_bounds(rng, n):
    shape = _aoi_shape(rng, n)
    mu = rng.choice((2.0, 2.5, 3.0))
    c_l = round(rng.uniform(0.5, 4.0), 3)
    pdn, pun = _sized_pair(shape, mu, 1.0, mu)
    fw, fb = _worst(pdn, 1.0), _best(pdn, 1.0)
    rw, rb = _worst(pun, mu), _best(pun, mu)
    case = {"schema": 1, "analysis": "delay_bounds",
            "params": {"expr": _expr(shape), "w_n": 1.0, "w_p": mu, "mu": mu, "c_l": c_l}}
    return case, _expect_values({
        "fall_worst": fw * c_l, "fall_best": fb * c_l,
        "rise_worst": rw * c_l, "rise_best": rb * c_l,
        "fall_worst_over_best": fw / fb, "rise_worst_over_best": rw / rb})


def effort_template(rng, n):
    """Sized AOI gate with random per-device widths against the default
    reference inverter. The networks are duals, so the opposing network never
    conducts while the driving one does, and per-input drive resistance is
    the closed-form critical resistance."""
    shape = _aoi_shape(rng, n)
    mu = rng.choice((2.0, 2.5, 3.0))
    cd = round(rng.uniform(0.5, 1.5), 3)

    def jitter(net):
        if net[0] == "in":
            return ("in", net[1], round(net[2] * rng.uniform(0.8, 1.25), 4))
        return (net[0], [jitter(c) for c in net[1]])
    pdn, pun = (jitter(x) for x in _sized_pair(shape, mu))
    norm = 1.0 + mu                                  # reference inverter r * c_in
    caps = {k: a + b for k, (a, b) in _widths(pun, _widths(pdn, {}, 0), 1).items()}
    fall, rise = _critical(pdn, 1.0), _critical(pun, mu)
    c_par = _adjacent(pdn) + _adjacent(pun)
    want = {"g_rise": {x: rise[x] * caps[x] / norm for x in sorted(caps)},
            "g_fall": {x: fall[x] * caps[x] / norm for x in sorted(caps)},
            "p_rise": _worst(pun, mu) * c_par * cd / norm,
            "p_fall": _worst(pdn, 1.0) * c_par * cd / norm,
            "c_in": {x: caps[x] for x in sorted(caps)}}
    case = {"schema": 1, "analysis": "derive_template",
            "params": {"pdn": _to_json(pdn), "pun": _to_json(pun), "mu": mu,
                       "cd_over_cg": cd}}
    return case, _expect_values(want)


# --- LFSRs over GF(2) ----------------------------------------------------------
# A polynomial is an int whose bit i is the coefficient of x^i.

def _mulmod(a, b, poly, n):
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if (a >> n) & 1:
            a ^= poly
    return out


def _powmod_x(e, poly, n):
    result, base = 1, 2
    while e:
        if e & 1:
            result = _mulmod(result, base, poly, n)
        base = _mulmod(base, base, poly, n)
        e >>= 1
    return result


def _prime_factors(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + ([m] if m > 1 else [])


def is_primitive(poly, n):
    """x has order exactly 2^n - 1 modulo ``poly`` (degree n)."""
    order = (1 << n) - 1
    return _powmod_x(order, poly, n) == 1 and all(
        _powmod_x(order // q, poly, n) != 1 for q in _prime_factors(order))


def lfsr(rng, n, steps=24):
    """A primitive polynomial of degree n drawn by rejection; a random
    nonzero seed. Period 2^n - 1; state k is x^k * seed mod p."""
    while True:
        poly = (1 << n) | 1 | (rng.getrandbits(n - 1) << 1)
        if is_primitive(poly, n):
            break
    powers = [i for i in range(n + 1) if (poly >> i) & 1]
    seed = rng.randrange(1, 1 << n)
    states, s = [seed], seed
    for _ in range(steps):
        s = _mulmod(s, 2, poly, n)
        states.append(s)
    columns = [_mulmod(1 << j, 2, poly, n) for j in range(n)]
    matrix = [[(columns[j] >> i) & 1 for j in range(n)] for i in range(n)]
    case = {"schema": 1, "analysis": "lfsr",
            "params": {"powers": powers, "seed": seed, "steps": steps}}
    return case, _expect_values({"n": n, "taps": powers[1:-1], "matrix": matrix,
                                 "states": states, "period": (1 << n) - 1})


# --- the pass ----------------------------------------------------------------

# (family, generating function, argument tuples): one pass, before shuffling. Sizes are
# chosen so that each family takes a comparable share of a pass here, and so
# that the latency percentiles fall inside groups of like cases rather than
# on the edge between two: of the 50 cases, 21 are slower and 22 faster than
# the seven that cost about as much as a degree-16 LFSR (p50), and two are
# slower than the 12-input untestable ATPG (p95).
PASS = (
    ("rc_bushy", rc_bushy, [(1200,), (1400,), (1600,)]),
    ("rc_deep", rc_deep, [(110,), (140,), (150,)]),
    ("atpg", atpg, [(10, "early"), (10, "late"), (10, "untestable"), (11, "early"),
                    (11, "late"), (11, "late"), (12, "early"), (12, "untestable"),
                    (13, "early"), (14, "early")]),
    ("fault_simulate", fault_sim, [(16, 48, 64), (12, 52, 16)]),
    ("signal_probability", signal_prob, [(12,), (14,), (16,)]),
    ("aoi_gates", gate_compound, [(10,), (12,), (12,)]),
    ("aoi_gates", gate_delay_bounds, [(10,), (12,), (12,), (12,)]),
    ("aoi_gates", effort_template, [(10,), (11,), (12,), (12,), (12,)]),
    ("lfsr", lfsr, [(d,) for d in (12, 13, 14, 15, 16, 12, 13, 14, 15, 16, 16, 16, 16, 16,
                                   12, 13, 14)]),
)


def generate(seed):
    """One pass of scale cases, deterministic in ``seed``, in seeded order."""
    rng = random.Random(seed)
    cases = [ScaleCase(family, *build(rng, *args))
             for family, build, arg_list in PASS for args in arg_list]
    rng.shuffle(cases)
    return cases
