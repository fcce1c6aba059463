import math

import pytest

from vlsidesk import effort
from vlsidesk.effort import (
    EFFORT_STAGE_LIMIT,
    ForkSpec,
    PathSpec,
    PullupLoad,
    Stage,
    derive_template,
    design_fork,
    nand_nor_effort,
    optimize_path,
    path_delay,
    size_stages,
)
from vlsidesk.errors import DomainError, InputError, SizeError
from vlsidesk.gates import CompoundGate, Parallel, Series, Switch


def inverter(mu=2.0, w_n=1.0):
    return CompoundGate(pdn=Switch("a", w_n), pun=Switch("a", mu * w_n),
                        w_n=w_n, w_p=mu * w_n, mu=mu)


def test_reference_applied_to_itself():
    ref = inverter()
    tpl = derive_template(ref, ref)
    assert tpl.g_rise["a"] == pytest.approx(1.0)
    assert tpl.g_fall["a"] == pytest.approx(1.0)
    assert tpl.p_rise == pytest.approx(1.0)


def test_ratioed_gate_template():
    # pull-down (a:3 + b:5) || c:5 against an always-on unit pull-up, mu=2
    gate = CompoundGate(
        pdn=Parallel((Series((Switch("a", 3.0), Switch("b", 5.0))),
                      Switch("c", 5.0))),
        pun=PullupLoad(1.0), mu=2.0)
    tpl = derive_template(gate, inverter(mu=2.0))
    assert tpl.g_fall["a"] == pytest.approx(8 / 11)
    assert tpl.g_fall["b"] == pytest.approx(40 / 33)
    assert tpl.g_fall["c"] == pytest.approx(10 / 27)
    assert tpl.g_rise["a"] == pytest.approx(2.0)
    assert tpl.g_rise["b"] == pytest.approx(10 / 3)
    assert tpl.g_rise["c"] == pytest.approx(10 / 3)
    assert tpl.p_rise == pytest.approx(6.0)
    assert tpl.p_fall == pytest.approx(24 / 11)


@pytest.mark.parametrize("which", ["pull-down", "pull-up", "reference pull-down"])
def test_no_completing_pattern_names_the_network(which):
    # a 1e-320 width makes that network's drive resistance inf and its g_eff 0
    width = {which: 1e-320}
    gate = CompoundGate(pdn=Switch("a", width.get("pull-down", 1.0)),
                        pun=Switch("a", width.get("pull-up", 2.0)), mu=2.0)
    ref = inverter(w_n=width.get("reference pull-down", 1.0))
    with pytest.raises(DomainError,
                       match=f"^the {which} network completes no transition"):
        derive_template(gate, ref)


def test_load_stronger_than_the_pull_down_is_a_domain_error():
    gate = CompoundGate(pdn=Switch("a"), pun=PullupLoad(100.0), mu=2.0)
    with pytest.raises(DomainError, match="^the pull-down network completes no transition"):
        derive_template(gate, inverter())


def test_pull_networks_switching_different_inputs_are_an_input_error():
    gate = CompoundGate(pdn=Switch("a"), pun=Switch("b", 2.0), mu=2.0)
    with pytest.raises(InputError, match=r"^the gate's pull-down and pull-up networks switch "
                       r"different inputs: only the pull-down switches \['a'\], only the "
                       r"pull-up \['b'\]$"):
        derive_template(gate, inverter())
    ref = CompoundGate(pdn=Series((Switch("a"), Switch("c"))),
                       pun=Series((Switch("a"), Switch("b"))), mu=2.0)
    with pytest.raises(InputError, match=r"^the reference's .* only the pull-down switches "
                       r"\['c'\], only the pull-up \['b'\]$"):
        derive_template(inverter(), ref)
    loaded = CompoundGate(pdn=Series((Switch("a"), Switch("b"))), pun=PullupLoad(0.5), mu=2.0)
    assert derive_template(loaded, inverter()).g_rise.keys() == {"a", "b"}


@pytest.mark.parametrize("gate,message", [
    (CompoundGate(pdn=Parallel((Switch("a", 1e-320), Switch("b"))),
                  pun=Series((Switch("a", 2.0), Switch("b", 2.0))), mu=2.0),
     "the pull-down network completes no transition through switch 'a'"),
    (CompoundGate(pdn=Switch("a"), pun=Switch("a", 2.0), mu=-2.0),
     "the pull-up network completes no transition through switch 'a'"),
    (CompoundGate(pdn=Switch("a"), pun=PullupLoad(0.0), mu=2.0),
     "the pull-up network completes no transition through its load: its resistance "
     "rho / width = 2 / 0 is not positive and finite"),
    (CompoundGate(pdn=Switch("a"), pun=Switch("a"), mu=1e308),
     "the template is not finite"),
    (CompoundGate(pdn=Switch("a"), pun=Switch("a"), mu=1e-320),
     "the pull-up network completes no transition through switch 'a': its resistance "
     "rho / width = 9.99989e-321 / 1 is not positive and finite with a finite inverse"),
], ids=["parallel-1e-320", "negative-mu", "zero-load", "mu-1e308", "subnormal-mu"])
def test_resistance_or_template_out_of_range_is_a_domain_error(gate, message):
    with pytest.raises(DomainError, match=f"^{message}"):
        derive_template(gate, inverter(mu=1e308 if gate.mu == 1e308 else 2.0))


def nand2(mu=2.0):
    return CompoundGate(pdn=Series((Switch("a", 2.0), Switch("b", 2.0))),
                        pun=Parallel((Switch("a", 2.0), Switch("b", 2.0))),
                        mu=mu)


def nor2(mu=2.0):
    return CompoundGate(pdn=Parallel((Switch("a", 1.0), Switch("b", 1.0))),
                        pun=Series((Switch("a", 4.0), Switch("b", 4.0))),
                        mu=mu)


def test_nand2_referenced_templates():
    ref = nand2()
    tpl_inv = derive_template(inverter(), ref)
    tpl_nor = derive_template(nor2(), ref)
    tpl_nand = derive_template(nand2(), ref)
    assert tpl_inv.g_rise["a"] == pytest.approx(3 / 4)
    assert tpl_nor.g_rise["a"] == pytest.approx(5 / 4)
    assert tpl_nand.p_rise == pytest.approx(3 / 2)
    assert tpl_nand.g_rise["a"] == pytest.approx(1.0)


def test_nand_nor_closed_forms():
    res = nand_nor_effort(2, 2.0)
    assert res["nand"]["per_input"] == pytest.approx(4 / 3)
    assert res["nor"]["per_input"] == pytest.approx(5 / 3)
    res1 = nand_nor_effort(1, 3.0)
    assert res1["nand"]["per_input"] == pytest.approx(1.0)
    assert res1["nor"]["per_input"] == pytest.approx(1.0)


def test_nand_nor_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="not finite"):
        nand_nor_effort(int(1e308), 1e308)


@pytest.mark.parametrize("n,mu", [(2, 2.0), (3, 3.0), (4, 2.0), (5, 1.5)])
def test_nand_nor_matches_constructed_gates(n, mu):
    res = nand_nor_effort(n, mu)
    names = [f"x{k}" for k in range(n)]
    nand = CompoundGate(
        pdn=Series(tuple(Switch(c, float(n)) for c in names)),
        pun=Parallel(tuple(Switch(c, mu) for c in names)), mu=mu)
    nor = CompoundGate(
        pdn=Parallel(tuple(Switch(c, 1.0) for c in names)),
        pun=Series(tuple(Switch(c, n * mu) for c in names)), mu=mu)
    tpl_nand = derive_template(nand, inverter(mu))
    tpl_nor = derive_template(nor, inverter(mu))
    for x in names:
        assert tpl_nand.g_fall[x] == pytest.approx(res["nand"]["per_input"])
        assert tpl_nand.g_rise[x] == pytest.approx(res["nand"]["per_input"])
        assert tpl_nor.g_fall[x] == pytest.approx(res["nor"]["per_input"])
        assert tpl_nor.g_rise[x] == pytest.approx(res["nor"]["per_input"])
    if n == 4 and mu == 2.0:
        assert res["nand"]["per_input"] == pytest.approx(2.0)
        assert res["nor"]["per_input"] == pytest.approx(3.0)


def test_decoder_path_delay():
    stages = [Stage(g=5 / 3, p=3), Stage(g=1, p=1), Stage(g=4 / 3, p=2),
              Stage(g=1, p=1), Stage(g=4 / 3, p=2), Stage(g=1, p=1),
              Stage(g=1, p=1), Stage(g=1, p=1)]
    # distribute the 512x branching across the chain; only the product matters
    path = PathSpec(stages=[Stage(s.g, s.p, b=512 ** (1 / 8)) for s in stages],
                    c_in=1.0, c_load=20.0)
    res = path_delay(path)
    assert res["d_hat"] == pytest.approx(41.1, abs=0.1)


def test_three_stage_path_f64():
    path = PathSpec(stages=[Stage(g=4 / 3, p=2, b=6 ** (1 / 3))] * 3,
                    c_in=1.0, c_load=4.5)
    res = path_delay(path)
    assert res["F"] == pytest.approx(64.0)
    assert res["d_hat"] == pytest.approx(18.0, abs=0.05)


def test_equal_nand_chain_unity_load():
    path = PathSpec(stages=[Stage(g=4 / 3, p=2)] * 3, c_in=1.0, c_load=1.0)
    res = path_delay(path)
    assert res["f_hat"] == pytest.approx(4 / 3)
    caps = size_stages(path, res["f_hat"])
    assert caps == pytest.approx([1.0, 1.0, 1.0])


def test_inverter_chain_sizes_1_4_16():
    path = PathSpec(stages=[Stage(g=1, p=1)] * 3, c_in=1.0, c_load=64.0)
    caps = size_stages(path)
    assert caps == pytest.approx([1.0, 4.0, 16.0])
    best = optimize_path(path)  # three stages already optimal here
    assert best["n"] == 3
    assert best["stage_caps"] == pytest.approx([1.0, 4.0, 16.0])


def test_backpropagated_sizes_reproduce_stage_effort(rng):
    for _ in range(20):
        stages = [Stage(g=rng.uniform(0.8, 3.0), p=rng.uniform(0.5, 4.0),
                        b=rng.uniform(1.0, 3.0))
                  for _ in range(rng.randint(2, 7))]
        path = PathSpec(stages=stages, c_in=rng.uniform(0.5, 10),
                        c_load=rng.uniform(10, 1e4))
        res = path_delay(path)
        caps = size_stages(path, res["f_hat"])
        c_seq = caps + [path.c_load]
        for s, c_here, c_next in zip(stages, caps, c_seq[1:]):
            f_i = s.g * s.b * c_next / c_here
            assert f_i == pytest.approx(res["f_hat"], rel=1e-9)
        assert caps[0] == pytest.approx(path.c_in, rel=1e-9)


def test_equal_effort_is_optimal(rng):
    for _ in range(10):
        stages = [Stage(g=rng.uniform(0.8, 3.0), p=1.0)
                  for _ in range(rng.randint(3, 5))]
        path = PathSpec(stages=stages, c_in=1.0, c_load=rng.uniform(20, 500))
        caps = size_stages(path)

        def delay_for(caps_mid):
            seq = [path.c_in] + list(caps_mid) + [path.c_load]
            return sum(s.g * seq[i + 1] / seq[i] + s.p
                       for i, s in enumerate(stages))
        base = delay_for(caps[1:])
        for i in range(len(caps) - 1):
            for scale in (0.95, 1.05):
                perturbed = list(caps[1:])
                perturbed[i] *= scale
                assert delay_for(perturbed) >= base - 1e-9


def test_and16_no_inverters_needed():
    path = PathSpec(stages=[Stage(g=2, p=4), Stage(g=3, p=4)],
                    c_in=1.0, c_load=3.0)
    res = optimize_path(path, polarity="non_inverting", rho=4.0)
    assert res["n"] == 2
    assert res["added_inverters"] == 0
    assert res["d"] == pytest.approx(16.49, abs=0.01)


def test_and16_large_load_adds_four_inverters():
    path = PathSpec(stages=[Stage(g=2, p=4), Stage(g=3, p=4)],
                    c_in=1.0, c_load=300.0)
    res = optimize_path(path, polarity="non_inverting", rho=4.0)
    assert res["n"] == 6
    assert res["added_inverters"] == 4
    assert res["d"] == pytest.approx(32.93, abs=0.01)
    assert res["stage_caps"][1] == pytest.approx(1.74, abs=0.01)   # NOR input
    assert res["stage_caps"][0] == pytest.approx(1.0, rel=1e-6)


def test_optimize_never_worse_than_original(rng):
    for _ in range(10):
        stages = [Stage(g=rng.uniform(1.0, 3.0), p=rng.uniform(0.5, 4.0))
                  for _ in range(rng.randint(1, 4))]
        path = PathSpec(stages=stages, c_in=1.0, c_load=rng.uniform(10, 2000))
        res = optimize_path(path, allow_added_inverters=True, polarity="any")
        assert res["d"] <= path_delay(path)["d_hat"] + 1e-9


def test_domino_four_stage_design():
    h = 500.0 / 30.0
    four = PathSpec(stages=[Stage(g=2 / 3, p=8 / 9), Stage(g=5 / 6, p=5 / 6),
                            Stage(g=1 / 3, p=7 / 9), Stage(g=5 / 6, p=5 / 6)],
                    c_in=30.0, c_load=500.0)
    two = PathSpec(stages=[Stage(g=2 / 3, p=14 / 9), Stage(g=5 / 6, p=5 / 6)],
                   c_in=30.0, c_load=500.0)
    d4 = path_delay(four)
    d2 = path_delay(two)
    assert d4["d_hat"] == pytest.approx(8.4, abs=0.05)
    assert d4["d_hat"] < d2["d_hat"]
    caps = size_stages(four)
    assert caps[3] * 500.0 / 500.0 == pytest.approx(329.0, rel=0.02)
    assert caps[3] == pytest.approx(328.0, rel=0.02)
    assert caps[2] == pytest.approx(86.0, rel=0.02)
    assert caps[1] == pytest.approx(56.0, rel=0.02)
    assert h == pytest.approx(d4["H"])


def test_fork_2000():
    res = design_fork(ForkSpec(c_in_total=10.0, branch_load=2000.0))
    assert res["m"] == 4
    assert res["x"] == pytest.approx(4.8, abs=0.05)
    assert res["d_fork"] == pytest.approx(21.7, abs=0.1)
    assert res["long_caps"] == pytest.approx(
        [4.8, 16.0, 53.6, 179.1, 598.5], rel=0.01)
    assert res["x"] + res["x_short"] == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize("c_in_total,branch_load", [(1.0, 1e308), (1e-308, 300.0)])
def test_fork_load_ratio_overflow_is_a_domain_error(c_in_total, branch_load):
    with pytest.raises(DomainError, match="overflows"):
        design_fork(ForkSpec(c_in_total=c_in_total, branch_load=branch_load))


def test_fork_1000():
    res = design_fork(ForkSpec(c_in_total=20.0, branch_load=1000.0))
    assert res["m"] == 3
    assert 9.4 <= res["x"] <= 9.7   # D is flat near the optimum split
    assert res["d_fork"] == pytest.approx(16.8, abs=0.1)


def test_fork_clock_buffer():
    res = design_fork(ForkSpec(c_in_total=100.0, branch_load=300.0))
    assert res["m"] == 1
    assert res["x"] == pytest.approx(49.4, abs=0.1)
    assert res["d_fork"] == pytest.approx(6.9, abs=0.05)


def test_fork_branches_balanced(rng):
    for _ in range(10):
        spec = ForkSpec(c_in_total=rng.uniform(5, 50),
                        branch_load=rng.uniform(200, 5000))
        res = design_fork(spec)
        long_d, short_d = effort._fork_delays(res["m"], res["x"], spec)
        assert abs(long_d - short_d) < 2e-3


def test_fork_rejects_bad_loads():
    with pytest.raises(Exception):
        design_fork(ForkSpec(c_in_total=10.0, branch_load=-5.0))
    with pytest.raises(Exception):
        design_fork(ForkSpec(c_in_total=0.0, branch_load=100.0))


@pytest.mark.parametrize("rho", [1.0, -0.0, 0.5])
def test_stage_effort_rho_must_exceed_1(rho):
    path = PathSpec(stages=[Stage(g=2, p=4)], c_in=1, c_load=300)
    with pytest.raises(InputError, match="rho must exceed 1"):
        optimize_path(path, rho=rho)
    with pytest.raises(InputError, match="rho must exceed 1"):
        design_fork(ForkSpec(c_in_total=20.0, branch_load=1000.0), rho=rho)


@pytest.mark.parametrize("g,c_in,c_load", [(1e308, 1.0, 300.0), (1e-200, 1e200, 1e-200)])
def test_path_effort_that_overflows_or_underflows_is_a_domain_error(g, c_in, c_load):
    path = PathSpec(stages=[Stage(g=g, p=1)], c_in=c_in, c_load=c_load)
    for analysis in (path_delay, optimize_path):
        with pytest.raises(DomainError, match="path effort F"):
            analysis(path)


# rho = e^0.5, so log_rho(F) = 2 ln F: F = e^(n/2) asks for n stages
@pytest.mark.parametrize("n", [EFFORT_STAGE_LIMIT, EFFORT_STAGE_LIMIT + 1])
def test_optimize_path_stage_bound(n):
    path = PathSpec(stages=[Stage(g=1, p=1)], c_in=1.0, c_load=math.exp(n / 2))
    if n > EFFORT_STAGE_LIMIT:
        with pytest.raises(SizeError, match="effort stage bound"):
            optimize_path(path, rho=math.exp(0.5))
        return
    res = optimize_path(path, rho=math.exp(0.5))
    assert res["n"] in (n - 1, n, n + 1) and len(res["stage_caps"]) == res["n"]


@pytest.mark.parametrize("n", [EFFORT_STAGE_LIMIT, EFFORT_STAGE_LIMIT + 1])
def test_design_fork_stage_bound(n):
    given = ForkSpec(c_in_total=20.0, branch_load=1000.0, m=n)
    estimated = ForkSpec(c_in_total=2.0, branch_load=math.exp(n / 2))  # ratio e^(n/2)
    if n > EFFORT_STAGE_LIMIT:
        for spec in (given, estimated):
            with pytest.raises(SizeError, match="effort stage bound"):
                design_fork(spec, rho=math.exp(0.5))
        return
    assert len(design_fork(given)["long_caps"]) == n + 1
    assert design_fork(estimated, rho=math.exp(0.5))["m"] in (n - 1, n, n + 1)


def test_transition_chain_alternation():
    tpl = effort.GateTemplate(name="skewed", g_rise={"a": 2.0},
                              g_fall={"a": 0.5}, p_rise=2.0, p_fall=0.5,
                              c_in={"a": 1.0})
    stages = effort.transition_chain([(tpl, "a", 1.0)] * 3, "rise")
    assert [s.g for s in stages] == [2.0, 0.5, 2.0]
    stages_f = effort.transition_chain([(tpl, "a", 1.0)] * 3, "fall")
    assert [s.g for s in stages_f] == [0.5, 2.0, 0.5]


def test_optimize_path_inverting_keeps_an_odd_stage_count():
    # one stage with g = 1, p = 1 driving H = 8: F = 8, and log_3.59(8) = 1.63
    # rounds to 2 stages. Inverting allows N = 1 or 3 only:
    #   D(1) = 8 + 1 = 9;  D(3) = 3 * 8^(1/3) + 1 + 2 * 0.5 = 8.
    # So two inverters are added, f_hat = 2, and the caps back from
    # C_load = 8 are 4, 2, 1. Unconstrained, N = 2 wins: 2 * sqrt(8) + 1.5.
    path = PathSpec(stages=[Stage(g=1, p=1)], c_in=1.0, c_load=8.0)
    res = optimize_path(path, polarity="inverting", p_inv=0.5)
    assert res == {"n": 3, "added_inverters": 2, "d": 8.0, "f_hat": 2.0,
                   "stage_caps": [1.0, 2.0, 4.0], "candidates": {1: 9.0, 3: 8.0}}
    assert optimize_path(path, polarity="any", p_inv=0.5)["n"] == 2
