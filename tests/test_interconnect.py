import math
import time

import pytest

from vlsidesk.device import MosDevice
from vlsidesk.errors import DomainError, InputError
from vlsidesk.interconnect import (
    FixedDelay,
    RcDriver,
    RcTree,
    WireSpec,
    buffered_wire_delay,
    elmore,
    inverter_chain_plan,
    output_slew,
    wire_rc,
)


def test_single_lump():
    tree = RcTree.from_edges("in", [("in", "out", 50e3)], {"out": 20e-15})
    assert elmore(tree, "out") == pytest.approx(1e-9)


def test_two_stage_ladder():
    tree = RcTree.from_edges("in", [("in", "a", 1.0), ("a", "b", 1.0)],
                             {"a": 1.0, "b": 1.0})
    assert elmore(tree, "b") == pytest.approx(3.0)


def test_unknown_sink():
    tree = RcTree.from_edges("in", [("in", "a", 1.0)], {"a": 1.0})
    with pytest.raises(InputError):
        elmore(tree, "zz")


def shared_path_oracle(tree, sink):
    """O(n^2): sum over caps of the resistance shared between the two
    root paths, built from scratch."""
    def path(node):
        edges = []
        while node != tree.root:
            p, r = tree.parent[node]
            edges.append((p, node, r))
            node = p
        return set((p, c) for p, c, _ in edges), edges

    sink_set, _ = path(sink)
    tau = 0.0
    for node, c in tree.cap.items():
        _, edges = path(node)
        tau += c * sum(r for p, ch, r in edges if (p, ch) in sink_set)
    return tau


def random_tree(rng, n):
    tree = RcTree(root="n0")
    for i in range(1, n):
        parent = f"n{rng.randrange(i)}"
        tree.add_edge(parent, f"n{i}", rng.uniform(1.0, 1e3))
    for i in range(n):
        if rng.random() < 0.8:
            tree.set_cap(f"n{i}", rng.uniform(1e-15, 1e-12))
    return tree


def test_elmore_matches_oracle_random_trees(rng):
    for _ in range(50):
        tree = random_tree(rng, 20)
        sink = f"n{rng.randrange(1, 20)}"
        got = elmore(tree, sink)
        want = shared_path_oracle(tree, sink)
        assert got == pytest.approx(want, rel=1e-12)


def test_elmore_monotone_in_parasitics(rng):
    tree = random_tree(rng, 12)
    sink = "n7"
    base = elmore(tree, sink)
    for node in list(tree.cap):
        bumped = random_tree(rng, 1)  # fresh container
        bumped.root = tree.root
        bumped.parent = dict(tree.parent)
        bumped.cap = dict(tree.cap)
        bumped.cap[node] = bumped.cap[node] * 2
        assert elmore(bumped, sink) >= base - 1e-18


def unit_chain(n):
    """Root n0 and n - 1 unit-R sections, a unit C at every other node."""
    return RcTree.from_edges("n0", [(f"n{i}", f"n{i + 1}", 1.0) for i in range(n - 1)],
                             {f"n{i}": 1.0 for i in range(1, n)})


def test_elmore_long_chain_is_linear_time():
    n = 10**5
    tree = unit_chain(n)
    t0 = time.perf_counter()
    tau = elmore(tree, f"n{n - 1}")
    assert time.perf_counter() - t0 < 2.0
    assert tau == pytest.approx((n - 1) * n / 2, rel=1e-12)


def test_deep_chain_has_no_recursion_limit():
    tree = unit_chain(5000)
    assert tree.downstream_cap("n0") == 4999.0
    assert tree.downstream_cap("n4000") == 1000.0
    assert len(tree.path_to_root("n4999")) == 4999
    assert elmore(tree, "n2") == pytest.approx(4999.0 + 4998.0)


def test_cycles_and_orphans_raise_input_error():
    tree = RcTree.from_edges("s", [("s", "a", 1.0), ("b", "c", 1.0), ("c", "b", 1.0)],
                             {"a": 1.0})
    with pytest.raises(InputError):
        tree.downstream_cap("b")
    assert elmore(tree, "a") == 1.0
    tree.set_cap("c", 1.0)
    with pytest.raises(InputError):
        elmore(tree, "a")
    orphan = RcTree.from_edges("s", [("s", "a", 1.0), ("x", "y", 1.0)], {"y": 1.0})
    with pytest.raises(InputError):
        elmore(orphan, "a")


def test_wire_rc_fringe_only():
    spec = WireSpec(length=9.0, width=3 * 0.125e-3, r_sheet=0.025,
                    c_fringe_per_edge=50e-15, fringe_edges=1)  # mm units
    rc = wire_rc(spec)
    assert rc["r"] == pytest.approx(600.0)
    assert rc["c"] == pytest.approx(450e-15)


def test_wire_rc_area_plus_fringe():
    spec = WireSpec(length=10000.0, width=0.4, r_sheet=0.08,
                    c_area=8e-18, c_fringe_per_edge=23e-18, fringe_edges=1)
    rc = wire_rc(spec)
    assert rc["r"] == pytest.approx(2000.0)
    assert rc["c"] == pytest.approx(0.262e-12, rel=1e-3)


def test_wire_rc_zero_length():
    rc = wire_rc(WireSpec(length=0.0, width=1.0, r_sheet=0.1, c_area=1.0))
    assert rc == {"r": 0.0, "c": 0.0}


WIRE_50K_20F = WireSpec(length=1.0, width=1.0, r_sheet=50e3, c_area=20e-15)


def test_fixed_buffer_insertion_sweep():
    res = buffered_wire_delay(WIRE_50K_20F, range(0, 3), FixedDelay(0.25e-9))
    assert res["delays"][0] == pytest.approx(1e-9)
    assert res["delays"][1] == pytest.approx(0.75e-9)
    assert res["delays"][2] == pytest.approx(0.8333e-9, rel=1e-3)
    assert res["optimal_n"] == 1


@pytest.mark.parametrize("counts", [[], ["a"], [None]])
def test_buffer_sweep_needs_integer_counts(counts):
    with pytest.raises(InputError):
        buffered_wire_delay(WIRE_50K_20F, counts, FixedDelay(0.25e-9))


def test_slow_buffer_does_not_help():
    res = buffered_wire_delay(WIRE_50K_20F, range(0, 2), FixedDelay(1e-9))
    assert res["optimal_n"] == 0


def test_repeater_sweep_with_scaled_metric():
    wire = WireSpec(length=10000.0, width=0.4, r_sheet=0.08,
                    c_area=8e-18, c_fringe_per_edge=23e-18, fringe_edges=1)
    res = buffered_wire_delay(wire, range(0, 4), FixedDelay(0.05e-9),
                              wire_delay_coeff=0.9)
    assert res["delays"][0] == pytest.approx(0.471e-9, rel=2e-3)
    assert res["delays"][1] == pytest.approx(0.286e-9, rel=2e-3)
    assert res["delays"][2] == pytest.approx(0.257e-9, rel=2e-3)
    assert res["delays"][3] == pytest.approx(0.268e-9, rel=2e-3)
    assert res["optimal_n"] == 2


def test_rc_buffer_model():
    wire = WireSpec(length=9.0, width=3 * 0.125e-3, r_sheet=0.025,
                    c_fringe_per_edge=50e-15, fringe_edges=1)
    inv = RcDriver(r_drive=1000.0, c_diff_out=80e-15, c_gate_in=200e-15)
    res = buffered_wire_delay(wire, [0, 2], inv, driver=inv, load_c=200e-15)
    assert res["delays"][0] == pytest.approx(1.12e-9, rel=1e-3)
    assert res["delays"][2] == pytest.approx(1.5e-9, rel=1e-3)
    assert res["delays"][2] - res["delays"][0] == pytest.approx(0.38e-9, rel=1e-2)


def test_rc_model_uses_distinct_driver_for_first_segment():
    wire = WireSpec(length=1.0, width=1.0, r_sheet=1000.0, c_area=100e-15)
    weak = RcDriver(r_drive=5000.0, c_diff_out=10e-15, c_gate_in=20e-15)
    strong = RcDriver(r_drive=500.0, c_diff_out=10e-15, c_gate_in=20e-15)
    with_weak = buffered_wire_delay(wire, 1, strong, driver=weak,
                                    load_c=20e-15)["delays"][1]
    seg_r, seg_c = 500.0, 50e-15
    stage0 = 5000.0 * (10e-15 + seg_c + 20e-15) + seg_r * (seg_c + 20e-15)
    stage1 = 500.0 * (10e-15 + seg_c + 20e-15) + seg_r * (seg_c + 20e-15)
    assert with_weak == pytest.approx(stage0 + stage1)


def test_free_buffers_monotone(rng):
    res = buffered_wire_delay(WIRE_50K_20F, range(0, 12), FixedDelay(0.0))
    delays = [res["delays"][n] for n in range(12)]
    assert all(a >= b for a, b in zip(delays, delays[1:]))


def test_inverter_chain_plan():
    res = inverter_chain_plan(1000.0, 1.0)
    assert res["alpha"] == pytest.approx(3.59, abs=0.005)
    assert res["total_inverters"] == 6


def test_inverter_chain_unit_load():
    assert inverter_chain_plan(1.0)["total_inverters"] == 1


def test_inverter_chain_rejects_sub_unity_ratio():
    with pytest.raises(InputError):
        inverter_chain_plan(0.5)


def test_alpha_is_argmin_of_chain_delay(rng):
    for p in (0.5, 1.0, 2.0):
        alpha = inverter_chain_plan(100.0, p)["alpha"]
        f = 1e5

        def delay(n):
            return n * (f ** (1.0 / n) + p)
        n_star = math.log(f) / math.log(alpha)
        best = min((delay(n_star * s) for s in
                    [0.8, 0.9, 0.95, 1.05, 1.1, 1.2]))
        assert delay(n_star) <= best + 1e-9


NMOS_SLEW = MosDevice(k_prime=50e-6, vt0=0.7, w=12, l=1)


def test_slew_acc():
    t = output_slew(NMOS_SLEW, 10e-12, 3.0, 0.9, 0.1, method="acc")
    assert t == pytest.approx(24.31e-9, rel=0.01)


def test_slew_diff():
    t = output_slew(NMOS_SLEW, 10e-12, 3.0, 0.9, 0.1, method="diff")
    assert t == pytest.approx(21.82e-9, rel=0.01)


def test_slew_supplied_average_current():
    t = output_slew(MosDevice(), 50e-15, 1.0, 1.0, 0.5,
                    method="avg_current", i_avg=8e-6)
    assert t == pytest.approx(50e-15 * 0.5 / 8e-6)


def test_slew_device_off():
    dev = MosDevice(k_prime=50e-6, vt0=1.5, w=1, l=1)
    with pytest.raises(DomainError):
        output_slew(dev, 1e-12, 1.2, method="diff")


def test_slew_underflowing_current_is_domain_error():
    # the square-law current of a subnormal width underflows to 0
    dev = MosDevice(k_prime=50e-6, vt0=0.7, w=1e-320, l=1)
    with pytest.raises(DomainError, match="not positive and finite at both endpoints"):
        output_slew(dev, 10e-12, 3.0, method="diff")


@pytest.mark.parametrize("w,c_load", [(1e-316, 10e-12), (1e303, 1e-300)])
@pytest.mark.parametrize("method", ["acc", "diff"])
def test_slew_time_that_overflows_or_underflows_is_domain_error(w, c_load, method):
    # positive, finite currents that give an infinite or a zero transition time
    dev = MosDevice(k_prime=50e-6, vt0=0.7, w=w, l=1)
    with pytest.raises(DomainError, match="transition time"):
        output_slew(dev, c_load, 3.0, method=method)


def test_slew_supplied_tiny_average_current_is_domain_error():
    with pytest.raises(DomainError, match="transition time inf"):
        output_slew(MosDevice(), 1.0, 1.0, method="avg_current", i_avg=1e-320)


def ode_fall_time(dev, c, v_dd, v_hi, v_lo, steps=200000):
    """Backward reference: integrate C dV/dt = -I(V) with small fixed steps."""
    from vlsidesk.device import square_law_current
    k = dev.k_prime * dev.wl_ratio
    v_ov = v_dd - dev.vt0
    v, t = v_hi, 0.0
    dv = (v_hi - v_lo) / steps
    while v > v_lo:
        i = square_law_current(k, v_ov, v - dv / 2)
        t += c * dv / i
        v -= dv
    return t


def test_diff_matches_ode(rng):
    for _ in range(5):
        v_dd = rng.uniform(1.5, 3.3)
        # endpoint averaging only stays near the ODE for vt well below v_dd
        dev = MosDevice(k_prime=rng.uniform(20e-6, 200e-6),
                        vt0=rng.uniform(0.1, 0.25) * v_dd,
                        w=rng.uniform(2, 20), l=1)
        c = rng.uniform(0.1e-12, 5e-12)
        got = output_slew(dev, c, v_dd, 0.9, 0.1, method="diff")
        ref = ode_fall_time(dev, c, v_dd, 0.9 * v_dd, 0.1 * v_dd)
        assert got == pytest.approx(ref, rel=0.01)
        acc = output_slew(dev, c, v_dd, 0.9, 0.1, method="acc")
        assert acc == pytest.approx(ref, rel=0.15)
