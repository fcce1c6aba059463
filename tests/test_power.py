import itertools
import math

import pytest

from vlsidesk.boolexpr import And, Not, Or, Var, Xor
from vlsidesk.errors import DomainError, InputError, SizeError
from vlsidesk.power import (
    GRAY_CYCLE_LIMIT,
    LoadPoint,
    PowerEnv,
    adiabatic_energy,
    bus_split,
    gray_code,
    leakage_stack,
    short_circuit_power,
    signal_probability,
    switching_power,
    voltage_scaling_factors,
)


def test_or_of_and():
    res = signal_probability("AB + C", {"A": 0.2, "B": 0.2, "C": 0.667})
    assert res["p"] == pytest.approx(0.68, abs=1e-3)
    assert res["beta"] == pytest.approx(0.4352, abs=1e-3)


def test_aoi_expression():
    res = signal_probability("A(B+C) + BCD",
                             {"A": 0.25, "B": 0.33, "C": 0.5, "D": 0.25})
    assert res["p"] == pytest.approx(0.197, abs=1e-3)
    assert res["beta"] == pytest.approx(0.3163, abs=1e-3)


def test_redundant_cover():
    res = signal_probability("A'BD + AC'D + BC'D",
                             {"A": 0.3, "B": 0.4, "C": 0.5, "D": 0.6})
    assert res["p"] == pytest.approx(0.258)
    assert res["beta"] == pytest.approx(0.382872)


def test_constant_expression():
    res = signal_probability(Or(Var("A"), Not(Var("A"))), {"A": 0.3})
    assert res["p"] == pytest.approx(1.0)
    assert res["beta"] == pytest.approx(0.0)


def shannon_probability(expr, probs):
    names = expr.variables()

    def rec(i, env):
        if i == len(names):
            return 1.0 if expr.evaluate(env) else 0.0
        n = names[i]
        return probs[n] * rec(i + 1, {**env, n: 1}) \
            + (1 - probs[n]) * rec(i + 1, {**env, n: 0})
    return rec(0, {})


def random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        e = Var(rng.choice(names))
        return Not(e) if rng.random() < 0.3 else e
    kind = rng.choice(["and", "or", "xor", "not"])
    if kind == "not":
        return Not(random_expr(rng, names, depth - 1))
    if kind == "xor":
        return Xor(random_expr(rng, names, depth - 1),
                   random_expr(rng, names, depth - 1))
    cls = And if kind == "and" else Or
    return cls(*[random_expr(rng, names, depth - 1)
                 for _ in range(rng.randint(2, 3))])


def test_probability_matches_shannon(rng):
    names = ["a", "b", "c", "d", "e"]
    for _ in range(60):
        expr = random_expr(rng, names, 3)
        probs = {n: rng.random() for n in names}
        got = signal_probability(expr, probs)["p"]
        want = shannon_probability(expr, probs)
        assert got == pytest.approx(want, abs=1e-15)


def test_probability_de_morgan_invariant(rng):
    names = ["a", "b", "c"]
    for _ in range(20):
        x = random_expr(rng, names, 2)
        y = random_expr(rng, names, 2)
        probs = {n: rng.random() for n in names}
        lhs = signal_probability(Not(And(x, y)), probs)["p"]
        rhs = signal_probability(Or(Not(x), Not(y)), probs)["p"]
        assert lhs == pytest.approx(rhs, abs=1e-15)


def test_beta_bounded(rng):
    for p in [0.0, 0.1, 0.5, 0.9, 1.0]:
        beta = 2 * p * (1 - p)
        assert beta <= 0.5 + 1e-15
    res = signal_probability("A", {"A": 0.5})
    assert res["beta"] == pytest.approx(0.5)


def test_too_many_inputs():
    expr = Or(*[Var(f"x{i}") for i in range(25)])
    with pytest.raises(SizeError):
        signal_probability(expr, {f"x{i}": 0.5 for i in range(25)})


def test_missing_probability():
    with pytest.raises(InputError):
        signal_probability("AB", {"A": 0.5})


def test_switching_power_single_load():
    env = PowerEnv(v_dd=1.2, f_clk=500e6)
    p = switching_power([LoadPoint(c=100e-15, beta=0.4352)], env)
    assert p == pytest.approx(15.67e-6, rel=1e-3)


def test_switching_power_chip_estimate():
    env = PowerEnv(v_dd=0.9, f_clk=450e6)
    p = switching_power([LoadPoint(c=150e-12 * 70, beta=0.2)], env)
    assert p == pytest.approx(0.38, abs=0.005)


def test_switching_power_gate_comparison():
    env = PowerEnv(v_dd=1.0, f_clk=1.0)
    cg = 1.0
    nand3 = [LoadPoint(c=5 * cg / 3, beta=0.5)] * 3 + \
        [LoadPoint(c=8 * cg, beta=7 / 32)]
    nor3 = [LoadPoint(c=7 * cg / 3, beta=0.5)] * 3 + \
        [LoadPoint(c=8 * cg, beta=7 / 32)]
    ratio = switching_power(nand3, env) / switching_power(nor3, env)
    assert ratio == pytest.approx(17 / 21)


def test_switching_power_zero_to_one_convention():
    env = PowerEnv(v_dd=1.0, f_clk=1e9)
    loads = [LoadPoint(c=50e-15, beta=0.25), LoadPoint(c=50e-15, beta=0.25),
             LoadPoint(c=50e-15, beta=3 / 16)]
    p = switching_power(loads, env, activity="zero_to_one")
    assert p == pytest.approx(34.375e-6)


def test_switching_power_linear_in_c_and_f(rng):
    env1 = PowerEnv(v_dd=1.0, f_clk=1e8)
    env2 = PowerEnv(v_dd=1.0, f_clk=2e8)
    l1 = [LoadPoint(c=1e-15, beta=0.3)]
    l2 = [LoadPoint(c=2e-15, beta=0.3)]
    assert switching_power(l2, env1) == pytest.approx(2 * switching_power(l1, env1))
    assert switching_power(l1, env2) == pytest.approx(2 * switching_power(l1, env1))


def test_swing_limited_power():
    env = PowerEnv(v_dd=1.2, f_clk=1e9, v_swing=0.6)
    p = switching_power([LoadPoint(c=1e-15, beta=1.0)], env)
    assert p == pytest.approx(0.5 * 0.6 * 1.2 * 1e9 * 1e-15)


def test_short_circuit_power_golden_within_20pct():
    env = PowerEnv(v_dd=1.2, f_clk=500e6)
    p = short_circuit_power(200e-6, 0.3, env, tau_in=100e-12,
                            tau_out=250e-12, beta=0.3163)
    assert p == pytest.approx(32.5e-9, rel=0.20)


def test_short_circuit_zero_below_2vt():
    env = PowerEnv(v_dd=1.0, f_clk=1e9)
    assert short_circuit_power(1e-4, 0.5, env, 1e-10, beta=0.5) == 0.0
    assert short_circuit_power(1e-4, 0.6, env, 1e-10, beta=0.5) == 0.0


def test_short_circuit_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        short_circuit_power(1.0, 0.0, PowerEnv(v_dd=1e308, f_clk=1.0), 1.0)
    with pytest.raises(DomainError):  # finite cube, infinite product
        short_circuit_power(1e300, 0.0, PowerEnv(v_dd=1e10, f_clk=1e10), 1.0)


def short_circuit_energy_numeric(k, v_t, v_dd, tau_in, steps=20000) -> float:
    """Quadrature over the triangular current waveform (oracle for the
    closed form): input ramps 0 -> V_DD in tau_in, the off-going device
    conducts (k/2)(v_in - v_t)^2 up to the midpoint, symmetric after."""
    if v_dd <= 2.0 * v_t:
        return 0.0
    t_on = v_t / v_dd * tau_in
    t_mid = 0.5 * tau_in
    dt = (t_mid - t_on) / steps
    q = 0.0
    for i in range(steps):
        t = t_on + (i + 0.5) * dt
        v_in = v_dd * t / tau_in
        q += 0.5 * k * (v_in - v_t) ** 2 * dt
    return 2.0 * q * v_dd  # both halves, energy drawn from the rail


def test_short_circuit_matches_quadrature(rng):
    for _ in range(5):
        k = rng.uniform(5e-5, 5e-4)
        v_dd = rng.uniform(1.0, 3.0)
        v_t = rng.uniform(0.1, 0.4) * v_dd
        tau = rng.uniform(20e-12, 500e-12)
        env = PowerEnv(v_dd=v_dd, f_clk=1e9)
        closed = short_circuit_power(k, v_t, env, tau, beta=1.0)
        numeric = short_circuit_energy_numeric(k, v_t, v_dd, tau) * 1e9
        assert closed == pytest.approx(numeric, rel=0.01)


def test_voltage_scaling_factors():
    res = voltage_scaling_factors(1.0, 0.5, 0.2)
    assert res["switching_reduction"] == pytest.approx(4.0)
    assert res["short_circuit_reduction"] == pytest.approx(72.0)


def test_voltage_scaling_identity():
    res = voltage_scaling_factors(0.9, 0.9, 0.2)
    assert res["switching_reduction"] == pytest.approx(1.0)
    assert res["short_circuit_reduction"] == pytest.approx(1.0)


def test_voltage_scaling_zero_vt_collapses():
    res = voltage_scaling_factors(1.0, 0.5, 0.0)
    assert res["short_circuit_reduction"] == pytest.approx(2.0 ** 3)


def test_voltage_scaling_infinite_sc():
    res = voltage_scaling_factors(1.0, 0.4, 0.2)
    assert math.isinf(res["short_circuit_reduction"])


def test_leakage_stack():
    res = leakage_stack(1e-9, 0.1, 0.1, 1.0)
    assert res["v_x"] == pytest.approx(11 / 12)
    assert res["stack_over_single_ratio"] == pytest.approx(10 ** (-11 / 12))


def test_leakage_stack_no_dibl():
    res = leakage_stack(1e-9, 0.0, 0.1, 1.0)
    assert res["v_x"] == pytest.approx(1.0)
    assert res["stack_over_single_ratio"] == pytest.approx(1.0)


def leakage_stack_residual(lambda_d, s_swing, v_dd, v_x) -> float:
    """Relative mismatch of the two stacked-device leakage exponents at
    v_x (plug-back oracle for leakage_stack)."""
    top = lambda_d * (v_dd - v_x) / s_swing
    bottom = ((v_x - v_dd) + lambda_d * v_x) / s_swing
    return abs(top - bottom) / max(abs(top), abs(bottom), 1e-30)


def test_leakage_stack_kcl_residual(rng):
    for _ in range(20):
        lam = rng.uniform(0.01, 0.5)
        vdd = rng.uniform(0.6, 1.5)
        res = leakage_stack(1e-9, lam, rng.uniform(0.06, 0.12), vdd)
        assert leakage_stack_residual(lam, 0.1, vdd, res["v_x"]) < 1e-12


def test_adiabatic_energy():
    e = adiabatic_energy(3.3e3, 200e-15, 2.0, 100e-9, 1)
    assert e == pytest.approx(5.28e-15, rel=1e-3)
    assert adiabatic_energy(3.3e3, 200e-15, 2.0, 100e-9, 0) == 0.0
    slower = adiabatic_energy(3.3e3, 200e-15, 2.0, 1000e-9, 1)
    assert slower == pytest.approx(e / 10)


def test_bus_split_expression():
    # closed form at locality 0.8: 1 - (1.2/m + 0.2 m/N)
    for n, m in [(24, 12), (24, 4), (50, 10)]:
        res = bus_split(n, m)
        assert res["saving_percent"] == pytest.approx(
            (1 - (1.2 / m + 0.2 * m / n)) * 100)


def test_bus_split_optimum():
    res = bus_split(24, 4)
    assert res["optimal_m"] == pytest.approx(12.0)
    assert res["optimal_m_integer"] == 12


def test_bus_split_degenerate_single_bus():
    res = bus_split(10, 1)
    assert res["saving_percent"] == pytest.approx(
        (1 - (1.2 / 1 + 0.2 / 10)) * 100)


def test_bus_split_overflowing_optimum_is_a_domain_error():
    with pytest.raises(DomainError, match="optimal bus count"):
        bus_split(int(1e308), 12)


@pytest.mark.parametrize("n_bits", [GRAY_CYCLE_LIMIT + 1, 65])
def test_gray_full_cycle_beyond_the_bound_is_a_size_error(n_bits):
    with pytest.raises(SizeError, match="gray-code cycle bound"):
        gray_code(n_bits)


def test_gray_code_checks_a_given_sequence_without_the_bound():
    assert gray_code(65, [0, 2**64, 2**65 - 1])["codes"] == [0, 2**64 + 2**63, 2**64]
    assert gray_code(int(1e308), [3])["codes"] == [2]
    with pytest.raises(InputError, match="out of range for 65 bits"):
        gray_code(65, [2**65])


def test_gray_code_full_count():
    res = gray_code(3)
    assert res["binary_transitions"] == 11
    assert res["gray_transitions"] == 7
    assert res["saved"] == 4
    assert res["codes"][0] == 0


def test_gray_adjacent_hamming_one():
    for n in range(1, 13):
        res = gray_code(n)
        assert res["gray_transitions"] == 2 ** n - 1
        codes = res["codes"]
        assert all((a ^ b).bit_count() == 1
                   for a, b in itertools.pairwise(codes))


def test_gray_out_of_range():
    with pytest.raises(InputError):
        gray_code(2, [0, 4])
