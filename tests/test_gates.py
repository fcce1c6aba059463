import itertools
import random

import pytest

from vlsidesk import gates
from vlsidesk.boolexpr import parse_expr
from vlsidesk.errors import InputError, StructureError
from vlsidesk.gates import (
    ChargeShareCase,
    Parallel,
    Series,
    Switch,
    charge_share_voltage,
    common_euler_ordering,
    compound_gate,
    delay_bounds,
    evaluate_network,
    network_from_json,
    network_graph,
    network_inputs,
)


def all_assignments(names):
    for bits in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def test_compound_gate_widths_three_branch():
    g = compound_gate("ABC + HDE + FG", reference=(1, 4), mu=4)
    w = g.widths()
    for name in "ABCHDE":
        assert w[name][0] == pytest.approx(3.0)
    for name in "FG":
        assert w[name][0] == pytest.approx(2.0)
    for name in "ABCHDEFG":
        assert w[name][1] == pytest.approx(12.0)
    assert g.area() == pytest.approx(118.0)
    assert g.area_ratio_vs_reference() == pytest.approx(118 / 5)


def test_single_literal_is_inverter():
    g = compound_gate("A", reference=(1, 4), mu=4)
    assert g.widths() == {"A": (1.0, 4.0)}


def test_sizing_every_path_matches_reference(rng):
    exprs = ["AB + CDE", "AB(C+D) + E(F + G(P+Q))", "A(B'+C) + D + E'",
             "AB + CE + D"]
    for text in exprs:
        g = compound_gate(text, reference=(1, 4), mu=4)
        for net, rho in ((g.pdn, 1.0), (g.pun, 4.0)):
            for path_r in _full_path_resistances(net, rho):
                assert path_r == pytest.approx(1.0, rel=1e-12)


def _full_path_resistances(net, rho):
    if isinstance(net, Switch):
        return [rho / net.width]
    if isinstance(net, Series):
        totals = [0.0]
        for c in net.children:
            totals = [t + r for t in totals for r in _full_path_resistances(c, rho)]
        return totals
    out = []
    for c in net.children:
        out.extend(_full_path_resistances(c, rho))
    return out


def test_duality_exhaustive_random_expressions(rng):
    literals = ["A", "B", "C", "D", "E", "F"]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            name = rng.choice(literals)
            return name + ("'" if rng.random() < 0.3 else "")
        op = rng.choice(["+", " "])
        return "(" + op.join(random_expr(depth - 1)
                             for _ in range(rng.randint(2, 3))) + ")"

    for _ in range(25):
        g = compound_gate(random_expr(3), reference=(1, 2), mu=2)
        names = sorted(set(network_inputs(g.pdn)))
        for a in all_assignments(names):
            assert g.pdn_conducts(a) != g.pun_conducts(a)


def test_delay_bounds_two_branch():
    g = compound_gate("AB + CDE", reference=(1, 4), mu=4)
    b = delay_bounds(g)
    assert b["ratios"]["rise"] == pytest.approx(12 / 5)
    assert b["ratios"]["fall"] == pytest.approx(2.0)


def test_delay_bounds_three_branch_bounds():
    g = compound_gate("AB + CE + D", reference=(1, 4), mu=4)
    b = delay_bounds(g, c_l=1.0)
    assert b["fall"]["worst"] == pytest.approx(1.0)
    assert b["rise"]["worst"] == pytest.approx(1.0)
    assert b["rise"]["best"] == pytest.approx(2 / 3)
    assert b["fall"]["best"] == pytest.approx(1 / 3)


def test_delay_bounds_nested():
    g = compound_gate("AB(C+D) + E(F + G(P+Q))", reference=(1, 4), mu=4)
    b = delay_bounds(g)
    assert 1 / b["ratios"]["fall"] == pytest.approx(5 / 13)
    assert 1 / b["ratios"]["rise"] == pytest.approx(8 / 21)


def test_delay_worst_not_below_best(rng):
    for _ in range(10):
        n = rng.randint(2, 4)
        expr = "+".join("".join(rng.sample("ABCDEFG", rng.randint(1, 3)))
                        for _ in range(n))
        try:
            g = compound_gate(expr, reference=(1, 2), mu=2)
        except StructureError:
            continue  # repeated literal can break complementarity
        b = delay_bounds(g)
        assert b["fall"]["worst"] >= b["fall"]["best"]
        assert b["rise"]["worst"] >= b["rise"]["best"]


def test_evaluate_network_basics():
    net = Series((Switch("a"), Switch("b")))
    assert evaluate_network(net, {"a": 1, "b": 1})
    assert not evaluate_network(net, {"a": 1, "b": 0})
    par = Parallel((Switch("a"), Switch("b")))
    assert not evaluate_network(par, {"a": 0, "b": 0})
    with pytest.raises(InputError):
        evaluate_network(par, {"a": 0})


def test_network_from_json_parses_widths():
    net = network_from_json({"series": [{"input": "a", "width": "2.5"},
                                        {"parallel": [{"input": "b", "width": 3},
                                                      {"input": "c"}]}]})
    assert net == Series((Switch("a", 2.5),
                          Parallel((Switch("b", 3.0), Switch("c", 1.0)))))


@pytest.mark.parametrize("obj", ["a", {}, {"series": 5}, {"parallel": {"input": "a"}}])
def test_network_from_json_rejects_malformed_nodes(obj):
    with pytest.raises(StructureError):
        network_from_json(obj)


def test_evaluate_network_matches_expression(rng):
    for _ in range(20):
        text = "+".join("".join(rng.sample("abcdef", rng.randint(1, 3)))
                        for _ in range(rng.randint(2, 3)))
        expr = parse_expr(text)
        net = gates.sp_from_expr(expr)
        for a in all_assignments(expr.variables()):
            assert evaluate_network(net, a) == expr.evaluate(a)


def euler_ordering_valid(net, ordering) -> bool:
    """Independent check: can ``ordering`` be walked edge-by-edge in the graph?"""
    edges = network_graph(net)
    if sorted(ordering) != sorted(label for _, _, label in edges):
        return False

    def walk(at, remaining, idx):
        if idx == len(ordering):
            return True
        for i, (u, v, label) in enumerate(remaining):
            if label != ordering[idx]:
                continue
            nxt = remaining[:i] + remaining[i + 1:]
            if u == at and walk(v, nxt, idx + 1):
                return True
            if v == at and walk(u, nxt, idx + 1):
                return True
        return False

    nodes = {n for u, v, _ in edges for n in (u, v)}
    return any(walk(start, edges, 0) for start in sorted(nodes))


def test_common_euler_ordering_exists():
    g = compound_gate("A(B'+C) + D + E'", reference=(1, 4), mu=4)
    ordering = common_euler_ordering(g)
    assert ordering is not None
    assert euler_ordering_valid(g.pdn, ordering)
    assert euler_ordering_valid(g.pun, ordering)
    # one known-valid ordering must check out under the walk oracle
    assert euler_ordering_valid(g.pdn, ["E'", "D", "A", "B'", "C"])
    assert euler_ordering_valid(g.pun, ["E'", "D", "A", "B'", "C"])


def test_euler_single_switch():
    g = compound_gate("A", reference=(1, 2), mu=2)
    assert common_euler_ordering(g) == ["A"]


def test_euler_random_gates_pass_validity(rng):
    for _ in range(8):
        names = rng.sample("ABCDE", 5)
        expr = f"{names[0]}({names[1]}+{names[2]}) + {names[3]}{names[4]}"
        g = compound_gate(expr, reference=(1, 2), mu=2)
        ordering = common_euler_ordering(g)
        if ordering is None:
            continue
        assert euler_ordering_valid(g.pdn, ordering)
        assert euler_ordering_valid(g.pun, ordering)


def test_charge_share_worst_case():
    case = ChargeShareCase(c_out=6.84, c_exposed=(12.0, 5.78), v_dd=1.0)
    assert charge_share_voltage(case) == pytest.approx(0.28, abs=0.005)


def test_charge_share_no_exposure():
    case = ChargeShareCase(c_out=5.0, c_exposed=(), v_dd=1.2)
    assert charge_share_voltage(case) == pytest.approx(1.2)


def test_charge_share_symbolic_form():
    c_l, c_p = 8.0, 1.5
    case = ChargeShareCase(c_out=c_l, c_exposed=(2 * c_p,), v_dd=1.0)
    assert charge_share_voltage(case) == pytest.approx(c_l / (c_l + 2 * c_p))


def test_charge_share_monotone(rng):
    case0 = ChargeShareCase(c_out=4.0, c_exposed=(), v_dd=1.0)
    prev = charge_share_voltage(case0)
    for extra in [0.5, 1.0, 2.0, 4.0]:
        v = charge_share_voltage(
            ChargeShareCase(c_out=4.0, c_exposed=(extra,), v_dd=1.0))
        assert v < prev
        prev = v


def test_non_series_parallel_rejected():
    with pytest.raises(StructureError):
        gates.sp_from_expr(parse_expr("A ^ B"))


def test_euler_input_bound():
    expr = "+".join(f"x{k}" for k in range(13))
    g = compound_gate(expr, reference=(1, 2), mu=2)
    with pytest.raises(gates.SizeError):
        common_euler_ordering(g)
