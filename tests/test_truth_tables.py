"""The bit-parallel truth-table kernel against the per-pattern loops it
replaced, which live on here as oracles, and the enumeration bounds."""

import itertools
import random
import time

import pytest

from vlsidesk import boolexpr, effort, gates, power, testability
from vlsidesk.boolexpr import And, Not, Or, Var, Xor
from vlsidesk.errors import SizeError, StructureError
from vlsidesk.gates import CompoundGate, Parallel, Series, Switch
from vlsidesk.testability import Gate, GateNetlist, StuckFault

# --- oracles: one pattern at a time ----------------------------------------------

BOOL_GATES = {
    "and": all,
    "or": any,
    "nand": lambda ins: not all(ins),
    "nor": lambda ins: not any(ins),
    "xor": lambda ins: sum(ins) % 2 == 1,
    "xnor": lambda ins: sum(ins) % 2 == 0,
    "not": lambda ins: not ins[0],
    "buf": lambda ins: bool(ins[0]),
}


def simulate_oracle(net, bits, fault=None):
    def pin(name, v):
        return bool(fault.value) if fault is not None and name == fault.net else v

    values = {n: pin(n, bool(v)) for n, v in zip(net.inputs, bits)}
    for g in net._order:
        values[g.output] = pin(g.output, BOOL_GATES[g.kind]([values[i] for i in g.inputs]))
    return {o: int(values[o]) for o in net.outputs}


def atpg_oracle(net, fault):
    for bits in itertools.product((0, 1), repeat=len(net.inputs)):
        if simulate_oracle(net, bits) != simulate_oracle(net, bits, fault):
            return {"testable": True, "vector": list(bits)}
    return {"testable": False, "vector": None}


def fault_simulate_oracle(net, vectors, faults):
    return [[f.label() for f in faults
             if simulate_oracle(net, vec, f) != simulate_oracle(net, vec)]
            for vec in vectors]


def signal_probability_oracle(expr, probabilities):
    names = expr.variables()
    p = 0.0
    for bits in itertools.product((0, 1), repeat=len(names)):
        env = dict(zip(names, bits))
        if expr.evaluate(env):
            term = 1.0
            for n, b in env.items():
                term *= probabilities[n] if b else 1.0 - probabilities[n]
            p += term
    return p


def duality_oracle(gate):
    """The first assignment where PDN and PUN agree, or None."""
    names = sorted(set(gates.network_inputs(gate.pdn)))
    for bits in itertools.product((0, 1), repeat=len(names)):
        a = dict(zip(names, bits))
        if gate.pdn_conducts(a) == gate.pun_conducts(a):
            return a
    return None


def resistance_bounds_oracle(net, rho):
    names = sorted(set(gates.network_inputs(net)))
    rs = [r for bits in itertools.product((0, 1), repeat=len(names))
          if (r := gates._resistance(net, dict(zip(names, bits)), rho)) is not None]
    return max(rs), min(rs)


def pull_resistances_oracle(drive_net, oppose, mu, rho_drive):
    names = sorted(set(gates.network_inputs(drive_net)))
    per_input, overall = {}, None
    for bits in itertools.product((0, 1), repeat=len(names)):
        a = dict(zip(names, bits))
        r_drive = gates._resistance(drive_net, a, rho_drive)
        if r_drive is None:
            continue
        g_eff = 1.0 / r_drive
        if isinstance(oppose, effort.PullupLoad):
            g_eff -= oppose.width / mu
        elif oppose is not None:
            flipped = {k: 1 - v for k, v in a.items()}
            r_opp = gates._resistance(oppose, flipped, mu if rho_drive == 1.0 else 1.0)
            if r_opp is not None:
                g_eff -= 1.0 / r_opp
        if g_eff <= 0:
            continue
        r_eff = 1.0 / g_eff
        overall = r_eff if overall is None else max(overall, r_eff)
        for x in names:
            if a[x] and gates._resistance(drive_net, {**a, x: 0}, rho_drive) is None:
                per_input[x] = max(per_input.get(x, 0.0), r_eff)
    return per_input, overall


# --- random instances --------------------------------------------------------------

KINDS = sorted(BOOL_GATES)


def random_netlist(rng):
    inputs = tuple(f"i{k}" for k in range(rng.randint(1, 7)))
    nets, gs = list(inputs), []
    for k in range(rng.randint(1, 10)):
        kind = rng.choice(KINDS)
        width = 1 if kind in ("not", "buf") else rng.randint(2, 3)
        gs.append(Gate(kind, tuple(rng.choice(nets) for _ in range(width)), f"w{k}"))
        nets.append(f"w{k}")
    outputs = tuple(rng.sample(nets[len(inputs):], rng.randint(1, min(2, len(gs)))))
    return GateNetlist(inputs, tuple(gs), outputs)


def random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        v = Var(rng.choice(names))
        return Not(v) if rng.random() < 0.3 else v
    kind = rng.choice(["and", "or", "xor", "not"])
    if kind == "not":
        return Not(random_expr(rng, names, depth - 1))
    if kind == "xor":
        return Xor(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    cls = And if kind == "and" else Or
    return cls(*[random_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 3))])


def random_network(rng, names, depth, read_once):
    """Series-parallel switch network; with ``read_once`` every switch name
    is taken from ``names`` (a list consumed as it goes) at most once."""
    if depth == 0 or len(names) < 2 or rng.random() < 0.3:
        name = names.pop() if read_once else rng.choice(names)
        return Switch(name, rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 7.0 / 3.0]))
    cls = rng.choice([Series, Parallel])
    kids = []
    for _ in range(rng.randint(2, 3)):
        if read_once and not names:
            break
        kids.append(random_network(rng, names, depth - 1, read_once))
    return kids[0] if len(kids) == 1 else cls(tuple(kids))


def random_sop(rng, letters):
    terms = ["".join(rng.sample(letters, rng.randint(1, 3)))
             + ("'" if rng.random() < 0.2 else "") for _ in range(rng.randint(1, 4))]
    return "+".join(terms)


# --- kernel against oracles ---------------------------------------------------------

def test_pattern_tables_bit_order():
    for n in range(7):
        tables, full = boolexpr.pattern_tables(n)
        assert full == (1 << (1 << n)) - 1 and len(tables) == n
        for k, bits in enumerate(itertools.product((0, 1), repeat=n)):
            assert [(t >> k) & 1 for t in tables] == list(bits)
            assert boolexpr.pattern_bits(k, n) == list(bits)
    assert boolexpr.set_patterns(0b1011000) == [3, 4, 6]
    assert boolexpr.set_patterns(0) == []


def test_expr_table_matches_evaluate():
    rng = random.Random(4001)
    for _ in range(200):
        expr = random_expr(rng, list("abcde"), 3)
        names = expr.variables()
        tables, full = boolexpr.pattern_tables(len(names))
        table = boolexpr.expr_table(expr, dict(zip(names, tables)), full)
        for k, bits in enumerate(itertools.product((0, 1), repeat=len(names))):
            assert (table >> k) & 1 == expr.evaluate(dict(zip(names, bits)))


def test_atpg_matches_oracle():
    rng = random.Random(4002)
    testable = 0
    for _ in range(250):
        net = random_netlist(rng)
        fault = StuckFault(rng.choice(net.nets()), rng.randint(0, 1))
        want = atpg_oracle(net, fault)
        assert testability.atpg_exhaustive(net, fault) == want
        testable += want["testable"]
    assert 50 < testable < 250


def test_fault_simulate_matches_oracle():
    rng = random.Random(4003)
    for _ in range(200):
        net = random_netlist(rng)
        faults = [StuckFault(n, v) for n in net.nets() for v in (0, 1)]
        rng.shuffle(faults)
        vectors = [[rng.randint(0, 1) for _ in net.inputs] for _ in range(rng.randint(1, 9))]
        got = testability.fault_simulate(net, vectors, faults)
        assert [row["detected"] for row in got] == fault_simulate_oracle(net, vectors, faults)
        assert [row["vector"] for row in got] == vectors


def test_logic_simulate_matches_oracle():
    rng = random.Random(4004)
    for _ in range(200):
        net = random_netlist(rng)
        bits = [rng.randint(0, 1) for _ in net.inputs]
        fault = StuckFault(rng.choice(net.nets()), rng.randint(0, 1))
        for f in (None, fault):
            assert testability.logic_simulate(net, bits, f)["outputs"] == \
                simulate_oracle(net, bits, f)


def test_signal_probability_matches_oracle():
    rng = random.Random(4005)
    for _ in range(250):
        expr = random_expr(rng, list("abcdefg"), 3)
        probs = {n: rng.random() for n in "abcdefg"}
        got = power.signal_probability(expr, probs)["p"]
        want = signal_probability_oracle(expr, probs)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_read_once_bounds_match_enumeration():
    rng = random.Random(4006)
    for _ in range(250):
        net = random_network(rng, list("abcdefghij"), 4, read_once=True)
        rho = rng.choice([1.0, 2.0, 2.5])
        assert gates.resistance_bounds(net, rho) == resistance_bounds_oracle(net, rho)


def test_repeated_name_bounds_match_enumeration():
    rng = random.Random(4007)
    for _ in range(200):
        net = random_network(rng, list("abcde"), 4, read_once=False)
        assert gates.resistance_bounds(net, 1.5) == resistance_bounds_oracle(net, 1.5)


def test_pull_resistances_match_oracle():
    rng = random.Random(4008)
    for _ in range(200):
        mu = rng.choice([2.0, 3.0])
        g = gates.compound_gate(random_sop(rng, "ABCDEF"), reference=(1.0, mu), mu=mu)
        for args in ((g.pdn, g.pun, mu, 1.0), (g.pun, g.pdn, mu, mu),
                     (g.pdn, effort.PullupLoad(rng.choice([0.25, 0.5, 4.0])), mu, 1.0),
                     (g.pdn, None, mu, 1.0)):
            assert effort._pull_resistances(*args) == pull_resistances_oracle(*args)


def _rewidth(rng, net):
    if isinstance(net, Switch):
        return Switch(net.name, rng.uniform(0.2, 5.0))
    return type(net)(tuple(_rewidth(rng, c) for c in net.children))


def test_read_once_pull_resistances_match_oracle(monkeypatch):
    """Closed form where it applies, enumeration where it does not, both
    exactly equal to the oracle; the tallies show which path each took."""
    calls = []
    resistance = gates._resistance
    monkeypatch.setattr(gates, "_resistance",
                        lambda *args: calls.append(1) or resistance(*args))
    rng = random.Random(4010)
    enumerated = {"dual": 0, "dual_mu": 0, "none": 0, "load": 0, "fighter": 0}
    for _ in range(300):
        net = _rewidth(rng, random_network(rng, list("abcdefg"), 4, read_once=True))
        names = sorted(set(gates.network_inputs(net)))
        mu = rng.choice([1.5, 2.0, 3.0])
        dual = _rewidth(rng, gates.dual_network(net))
        fighter = Parallel(tuple(Switch(x, rng.uniform(0.2, 5.0)) for x in names)
                           + (Switch(names[0]),))
        load = effort.PullupLoad(0.05 * 800.0 ** rng.random())  # 0.05 to 40
        for kind, args in (("dual", (net, dual, mu, 1.0)), ("dual_mu", (net, dual, mu, mu)),
                           ("none", (net, None, mu, 1.0)), ("load", (net, load, mu, 1.0)),
                           ("fighter", (net, fighter, mu, 1.0))):
            want = pull_resistances_oracle(*args)  # the oracle calls _resistance too
            calls.clear()
            assert effort._pull_resistances(*args) == want
            enumerated[kind] += bool(calls)
    assert enumerated["dual"] == enumerated["dual_mu"] == enumerated["none"] == 0
    assert 30 < enumerated["load"] < 270 and enumerated["fighter"] > 150


def test_closed_form_needs_no_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a read-once gate")
    ref = gates.compound_gate("a")
    gate = gates.compound_gate("a0 a1 a2 + a3 (a4 + a5 + a6) + a7 a8 + a9 a10 a11")
    want = effort.derive_template(gate, ref)
    monkeypatch.setattr(gates, "_resistance", refuse)
    assert effort.derive_template(gate, ref) == want
    assert len(want.g_fall) == 12
    repeated = CompoundGate(pdn=Parallel((Series((Switch("a"), Switch("b"))), Switch("a"))),
                            pun=Series((Parallel((Switch("a"), Switch("b"))), Switch("a"))))
    with pytest.raises(AssertionError, match="enumerated"):
        effort.derive_template(repeated, ref)


def test_opposer_naming_an_input_the_drive_lacks_matches_oracle():
    # b is always off on the complemented inputs of the conducting patterns,
    # so c is never read
    drive = Series((Switch("a"), Switch("b")))
    args = (drive, Series((Switch("b"), Switch("c"))), 2.0, 1.0)
    assert effort._pull_resistances(*args) == pull_resistances_oracle(*args) == \
        ({"a": 2.0, "b": 2.0}, 2.0)


def test_worst_deciding_resistance_is_the_worst_bound():
    rng = random.Random(4011)
    for _ in range(200):
        net = _rewidth(rng, random_network(rng, list("abcdefghijkl"), 4, read_once=True))
        mu, rho = rng.choice([2.0, 3.0]), rng.choice([1.0, 2.0, 2.5])
        worst, _ = gates.resistance_bounds(net, rho)
        load = rng.uniform(0.0, 0.9) * mu / worst
        for oppose, g_eff in ((None, 1.0 / worst),
                              (effort.PullupLoad(load), 1.0 / worst - load / mu)):
            per_input, overall = effort._pull_resistances(net, oppose, mu, rho)
            assert max(per_input.values()) == overall == 1.0 / g_eff


def test_duality_matches_oracle():
    rng = random.Random(4009)
    for _ in range(200):
        shape = random_network(rng, list("abcdef"), 3, read_once=False)
        names = sorted(set(gates.network_inputs(shape)))
        pun = gates.dual_network(shape) if rng.random() < 0.3 else \
            random_network(rng, names, 3, read_once=False)
        g = CompoundGate(pdn=shape, pun=pun)
        first = duality_oracle(g)
        if first is None:
            gates._check_duality(g)
        else:
            with pytest.raises(StructureError, match="not complementary") as e:
                gates._check_duality(g)
            assert str(e.value) == f"PDN/PUN not complementary at {first}"


def test_non_dual_gate_raises():
    g = CompoundGate(pdn=Series((Switch("A"), Switch("B"))),
                     pun=Series((Switch("A"), Switch("B"))))
    with pytest.raises(StructureError) as e:
        gates._check_duality(g)
    assert str(e.value) == "PDN/PUN not complementary at {'A': 0, 'B': 1}"


def test_duality_checked_above_sixteen_inputs():
    names = [f"x{k}" for k in range(20)]
    shape = gates.sp_from_expr("+".join(names))
    gates._check_duality(CompoundGate(pdn=shape, pun=gates.dual_network(shape)))
    with pytest.raises(StructureError):
        gates._check_duality(CompoundGate(pdn=shape, pun=shape))


# --- named bounds ---------------------------------------------------------------------

def _raises_size_error_quickly(fn, *args):
    t0 = time.perf_counter()
    with pytest.raises(SizeError):
        fn(*args)
    assert time.perf_counter() - t0 < 1.0


def test_duality_bound():
    expr = "+".join(f"x{k}" for k in range(gates.DUALITY_INPUT_LIMIT + 1))
    _raises_size_error_quickly(gates.compound_gate, expr)
    gates.compound_gate(expr, check_duality=False)


def test_resistance_enumeration_bound():
    n = gates.RESISTANCE_INPUT_LIMIT + 1
    names = [f"x{k}" for k in range(n)]
    net = Parallel((Series(tuple(Switch(x) for x in names)), Switch("x0")))
    _raises_size_error_quickly(gates.resistance_bounds, net)
    read_once = Parallel((Series(tuple(Switch(x) for x in names)), Switch("y")))
    assert gates.resistance_bounds(read_once) == (float(n), 1.0 / (1.0 / n + 1.0))


def test_pull_resistance_bound():
    names = [f"x{k}" for k in range(22)]
    pdn = Parallel(tuple(Switch(x) for x in names))
    gate = CompoundGate(pdn=pdn, pun=Series(tuple(Switch(x, 2.0) for x in names)), mu=2.0)
    ref = CompoundGate(pdn=Switch("a"), pun=Switch("a", 2.0), mu=2.0)
    _raises_size_error_quickly(effort.derive_template, gate, ref)


def test_lfsr_period_bound():
    lfsr = testability.lfsr_build(testability.GfPolynomial.from_powers([0, 3, 28]))
    _raises_size_error_quickly(testability.lfsr_run, lfsr, 1, 0)
