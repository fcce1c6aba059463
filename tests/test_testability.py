import itertools
import random
import time

import pytest

from vlsidesk.errors import InputError, NetlistError, SizeError
from vlsidesk.testability import (
    LFSR_DEGREE_LIMIT,
    LFSR_STEP_LIMIT,
    Gate,
    GateNetlist,
    GfPolynomial,
    StuckFault,
    atpg_exhaustive,
    fault_simulate,
    lfsr_build,
    lfsr_run,
    logic_simulate,
)


@pytest.mark.parametrize("steps", [LFSR_STEP_LIMIT + 1, 2**70])
def test_lfsr_steps_beyond_the_bound_are_a_size_error(steps):
    t0 = time.perf_counter()
    with pytest.raises(SizeError, match="LFSR run bound"):
        lfsr_run(lfsr_build(GfPolynomial.from_powers([0, 1, 3])), 1, steps)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("degree", [LFSR_DEGREE_LIMIT + 1, 2**70])
def test_lfsr_degree_beyond_the_bound_is_a_size_error(degree):
    t0 = time.perf_counter()
    with pytest.raises(SizeError, match="LFSR degree bound"):
        GfPolynomial.from_powers([0, 3, degree])
    if degree == LFSR_DEGREE_LIMIT + 1:
        with pytest.raises(SizeError, match="LFSR degree bound"):
            GfPolynomial((1,) * (degree + 1))
    assert time.perf_counter() - t0 < 1.0


def test_lfsr_degree_at_the_bound_builds():
    lfsr = lfsr_build(GfPolynomial.from_powers([0, 3, LFSR_DEGREE_LIMIT]))
    assert lfsr.n == LFSR_DEGREE_LIMIT == len(lfsr.matrix) >= 28


def test_lfsr_from_polynomial():
    lfsr = lfsr_build(GfPolynomial.from_powers([0, 2, 7, 8]))
    assert lfsr.n == 8
    assert lfsr.taps == (2, 7)
    # feedback comes from bit 7 into bit 0 and the tap XORs
    assert lfsr.matrix[0][7] == 1
    assert lfsr.matrix[2][7] == 1 and lfsr.matrix[2][1] == 1
    assert lfsr.matrix[7][7] == 1 and lfsr.matrix[7][6] == 1


def test_degree_one_polynomial():
    lfsr = lfsr_build(GfPolynomial.from_powers([0, 1]))
    assert lfsr.n == 1
    assert lfsr.matrix == ((1,),)
    assert lfsr.step(1) == 1


def test_polynomial_needs_constant_term():
    with pytest.raises(InputError):
        GfPolynomial((0, 1, 1))


def step_matrix(lfsr, state: int) -> int:
    """One step as the companion-matrix product over GF(2) (oracle for Lfsr.step)."""
    bits = [(state >> i) & 1 for i in range(lfsr.n)]
    out = 0
    for i, row in enumerate(lfsr.matrix):
        v = 0
        for j, m in enumerate(row):
            v ^= m & bits[j]
        out |= v << i
    return out


def test_matrix_stepping_equals_structural():
    for powers in ([0, 2, 7, 8], [0, 1, 4], [0, 3, 5], [0, 1, 2, 3, 4]):
        lfsr = lfsr_build(GfPolynomial.from_powers(powers))
        for state in range(1 << lfsr.n):
            assert lfsr.step(state) == step_matrix(lfsr, state)


def test_zero_seed_is_absorbing():
    lfsr = lfsr_build(GfPolynomial.from_powers([0, 1, 4]))
    run = lfsr_run(lfsr, 0, 4)
    assert run["states"] == [0, 0, 0, 0, 0]
    assert run["period"] == 1


def brute_cycle_length(lfsr, seed):
    seen, s, n = {}, seed, 0
    while s not in seen:
        seen[s] = n
        s = lfsr.step(s)
        n += 1
    return n - seen[s]


PRIMITIVE = {2: [0, 1, 2], 3: [0, 1, 3], 4: [0, 1, 4], 5: [0, 2, 5],
             6: [0, 1, 6], 7: [0, 1, 7], 8: [0, 2, 3, 4, 8],
             9: [0, 4, 9], 10: [0, 3, 10]}


def poly_order_of_x(powers):
    """Multiplicative order of x mod f over GF(2): the modular LFSR state
    is the polynomial x^t, so this is an independent period oracle."""
    f = 0
    for p in powers:
        f |= 1 << p
    n = max(powers)
    s = 1
    for t in range(1, (1 << n) + 1):
        s <<= 1
        if s >> n & 1:
            s ^= f
        if s == 1:
            return t
    return None


def test_period_equals_polynomial_order():
    for powers in ([0, 2, 7, 8], [0, 1, 4], [0, 2, 5], [0, 1, 2, 4, 6]):
        lfsr = lfsr_build(GfPolynomial.from_powers(powers))
        assert lfsr_run(lfsr, 1, 0)["period"] == poly_order_of_x(powers)


def test_primitive_polynomials_hit_full_period():
    for n, powers in PRIMITIVE.items():
        lfsr = lfsr_build(GfPolynomial.from_powers(powers))
        run = lfsr_run(lfsr, 1, 0)
        assert run["period"] == 2 ** n - 1
        assert brute_cycle_length(lfsr, 1) == 2 ** n - 1


def test_primitive_visits_all_nonzero_states():
    for n, powers in list(PRIMITIVE.items())[:6]:
        lfsr = lfsr_build(GfPolynomial.from_powers(powers))
        run = lfsr_run(lfsr, 1, 2 ** n - 2)
        assert sorted(run["states"]) == sorted(set(run["states"]))
        assert set(run["states"]) == set(range(1, 2 ** n))


def period_loop(lfsr, seed):
    """Period by stepping until the seed recurs, up to 2^n steps (the search
    ``lfsr_run`` made before baby-step giant-step; oracle)."""
    n, feedback = lfsr.n, lfsr.feedback
    mask = (1 << n) - 1
    seed &= mask
    s = seed
    for i in range(1, (1 << n) + 1):
        s = ((s << 1) & mask) ^ feedback if s >> (n - 1) else s << 1
        if s == seed:
            return i
    return None


def lfsr_of(n, middle):
    """The degree-n LFSR whose middle coefficients c_1..c_(n-1) are the bits of ``middle``."""
    return lfsr_build(GfPolynomial((1, *((middle >> i) & 1 for i in range(n - 1)), 1)))


def test_period_matches_loop_for_every_polynomial_and_seed_to_degree_8():
    for n in range(1, 9):
        for middle in range(1 << (n - 1)):
            lfsr = lfsr_of(n, middle)
            for seed in range(1 << n):
                assert lfsr_run(lfsr, seed, 0)["period"] == period_loop(lfsr, seed), \
                    (n, middle, seed)


def test_period_matches_loop_on_seeded_polynomials_of_degree_9_to_18():
    rng = random.Random(918)
    for _ in range(300):
        n = rng.randint(9, 18)
        lfsr = lfsr_of(n, rng.getrandbits(n - 1))
        seed = rng.choice([0, 1, rng.getrandbits(n), rng.getrandbits(n + 3) - 5])
        assert lfsr_run(lfsr, seed, 0)["period"] == period_loop(lfsr, seed), (lfsr.poly, seed)


def test_degree_24_primitive_period_is_fast():
    lfsr = lfsr_build(GfPolynomial.from_powers([0, 1, 3, 4, 24]))
    t0 = time.perf_counter()
    assert lfsr_run(lfsr, 0x5A5A5A, 3)["period"] == 2**24 - 1
    assert time.perf_counter() - t0 < 1.0


NET_SMALL = GateNetlist(
    inputs=("a", "b", "c"),
    gates=(Gate("nand", ("a", "b"), "n1"),
           Gate("xor", ("n1", "c"), "y")),
    outputs=("y",))


def test_logic_simulate_primitives():
    nand = GateNetlist(("a", "b"), (Gate("nand", ("a", "b"), "y"),), ("y",))
    assert logic_simulate(nand, [1, 1])["outputs"]["y"] == 0
    xor = GateNetlist(("a", "b"), (Gate("xor", ("a", "b"), "y"),), ("y",))
    assert logic_simulate(xor, [1, 0])["outputs"]["y"] == 1


def test_logic_simulate_named_vector():
    out = logic_simulate(NET_SMALL, {"a": 1, "b": 1, "c": 0})
    assert out["outputs"]["y"] == 0


def test_netlist_rejects_cycle():
    with pytest.raises(NetlistError):
        GateNetlist(("a",), (Gate("and", ("a", "y"), "x"),
                             Gate("and", ("a", "x"), "y")), ("y",))


def test_netlist_rejects_double_driver():
    with pytest.raises(NetlistError):
        GateNetlist(("a", "b"), (Gate("not", ("a",), "y"),
                                 Gate("not", ("b",), "y")), ("y",))


def random_netlist(rng, n_inputs=8, n_gates=12):
    inputs = tuple(f"i{k}" for k in range(n_inputs))
    nets = list(inputs)
    gs = []
    for k in range(n_gates):
        kind = rng.choice(["and", "or", "nand", "nor", "xor", "xnor", "not", "buf"])
        width = 1 if kind in ("not", "buf") else rng.randint(2, 3)
        gs.append(Gate(kind, tuple(rng.choice(nets) for _ in range(width)),
                       f"w{k}"))
        nets.append(f"w{k}")
    return GateNetlist(inputs, tuple(gs), (nets[-1], nets[-2]))


def truth_table(net):
    rows = {}
    for bits in itertools.product((0, 1), repeat=len(net.inputs)):
        rows[bits] = logic_simulate(net, bits)["outputs"]
    return rows


def eval_by_hand(net, bits):
    vals = dict(zip(net.inputs, bits))
    from vlsidesk.testability import _GATE_FUNCS
    remaining = list(net.gates)
    while remaining:
        for g in list(remaining):
            if all(i in vals for i in g.inputs):
                vals[g.output] = int(_GATE_FUNCS[g.kind](
                    [bool(vals[i]) for i in g.inputs]))
                remaining.remove(g)
    return {o: vals[o] for o in net.outputs}


def test_logic_simulate_matches_oracle(rng):
    net = random_netlist(rng)
    for bits in itertools.product((0, 1), repeat=len(net.inputs)):
        assert logic_simulate(net, bits)["outputs"] == eval_by_hand(net, bits)


def test_fault_detected_on_output_net():
    net = GateNetlist(("a", "b"), (Gate("and", ("a", "b"), "y"),), ("y",))
    res = fault_simulate(net, [[0, 0]], [StuckFault("y", 1)])
    assert res[0]["detected"] == ["y/SA1"]


def test_fault_sets_match_dual_simulation(rng):
    for _ in range(5):
        net = random_netlist(rng, n_inputs=5, n_gates=8)
        faults = [StuckFault(n, v) for n in net.nets() for v in (0, 1)]
        vectors = [tuple(rng.randint(0, 1) for _ in net.inputs)
                   for _ in range(6)]
        res = fault_simulate(net, vectors, faults)
        for vec, row in zip(vectors, res):
            good = logic_simulate(net, vec)["outputs"]
            expect = [f.label() for f in faults
                      if logic_simulate(net, vec, fault=f)["outputs"] != good]
            assert row["detected"] == expect


def test_detected_fault_is_sensitized(rng):
    net = random_netlist(rng, n_inputs=5, n_gates=8)
    faults = [StuckFault(n, v) for n in net.nets() for v in (0, 1)]
    vectors = [tuple(rng.randint(0, 1) for _ in net.inputs) for _ in range(8)]
    for vec in vectors:
        good = logic_simulate(net, vec)["nets"]
        for f in faults:
            bad = logic_simulate(net, vec, fault=f)
            detected = bad["outputs"] != logic_simulate(net, vec)["outputs"]
            if detected:
                assert good[f.net] != bad["nets"][f.net]


def test_atpg_redundant_fault():
    net = GateNetlist(("a",), (Gate("not", ("a",), "an"),
                               Gate("or", ("a", "an"), "y")), ("y",))
    res = atpg_exhaustive(net, StuckFault("y", 1))
    assert not res["testable"]
    # the output is constant 1, so SA1 is invisible but SA0 is testable
    res0 = atpg_exhaustive(net, StuckFault("y", 0))
    assert res0["testable"] and res0["vector"] == [0]


def test_atpg_vector_detects(rng):
    for _ in range(10):
        net = random_netlist(rng, n_inputs=6, n_gates=9)
        fault = StuckFault(rng.choice(net.nets()), rng.randint(0, 1))
        res = atpg_exhaustive(net, fault)
        if res["testable"]:
            sim = fault_simulate(net, [res["vector"]], [fault])
            assert sim[0]["detected"] == [fault.label()]


def test_atpg_untestable_iff_never_detected(rng):
    for _ in range(5):
        net = random_netlist(rng, n_inputs=4, n_gates=6)
        for f in [StuckFault(n, v) for n in net.nets() for v in (0, 1)]:
            res = atpg_exhaustive(net, f)
            any_detect = any(
                fault_simulate(net, [bits], [f])[0]["detected"]
                for bits in itertools.product((0, 1), repeat=4))
            assert res["testable"] == any_detect


def test_atpg_lexicographic_order():
    net = GateNetlist(("a", "b"), (Gate("or", ("a", "b"), "y"),), ("y",))
    res = atpg_exhaustive(net, StuckFault("y", 1))
    assert res["vector"] == [0, 0]


def test_atpg_input_bound():
    inputs = tuple(f"i{k}" for k in range(21))
    net = GateNetlist(inputs, (Gate("or", inputs, "y"),), ("y",))
    with pytest.raises(SizeError):
        atpg_exhaustive(net, StuckFault("y", 0))


def test_polynomial_rejects_negative_powers():
    with pytest.raises(InputError):
        GfPolynomial.from_powers([0, -3])


def test_gate_functions_take_booleans_and_bitsets():
    from vlsidesk.testability import _GATE_FUNCS
    for kind, fn in _GATE_FUNCS.items():
        ins = [0b0011, 0b0101][:1 if kind in ("not", "buf") else 2]
        table = fn(ins, 0b1111)
        for k in range(4):
            assert bool(fn([bool((x >> k) & 1) for x in ins])) == bool((table >> k) & 1)
